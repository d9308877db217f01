"""Acceptance suite: one test per release criterion.

Each criterion is implemented once, in ``qmit.selftest``, which holds its
bound; these tests run it at release seeds and sizes (``qmit selftest`` runs
it at reduced sizes).  Each prints a single pass line with its measured
figure (visible with ``pytest -s`` or in the captured-output section).
Criteria 9-11 (training-trend claims on the MNIST-4 benchmark) are not
implemented yet.
"""

from qmit import selftest


def report(criterion, detail):
    print(f"ACCEPT {criterion}: PASS ({detail})")


def test_criterion_01_channel_inversion_exactness():
    report("01 channel-inversion", selftest.channel_inversion(seed=101, pairs=200))


def test_criterion_02_sampling_overhead_dual_form():
    report("02 overhead-dual-form", selftest.overhead_dual_form(seed=102, models=100))


def test_criterion_03_divergence_invariance_noise_free():
    report("03 noise-free-invariance", selftest.noise_free_invariance(seed=103, circuits=20))


def test_criterion_04_divergence_decreases_under_noise():
    report("04 noisy-divergence-trace", selftest.noisy_divergence_trace(seed=104, operations=500))


def test_criterion_05_perfect_mitigation_oracle():
    report("05 perfect-mitigation", selftest.perfect_mitigation(seed=105, circuits=50))


def test_criterion_06_fidelity_suite():
    report("06 fidelity-suite", selftest.fidelity_suite(seed=106, pairs=500))


def test_criterion_07_gradient_contract():
    report("07 gradient-contract", selftest.gradient_contract(seed=700, configs=20))


def test_criterion_08_rate_identifiability():
    report("08 rate-identifiability", selftest.rate_identifiability(seed=800, states=64))


def test_criterion_12_determinism():
    report("12 determinism", selftest.determinism(seed=11, train_cap=64))
