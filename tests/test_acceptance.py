"""Acceptance suite: every advertised guarantee at its stated tolerance.

Each criterion prints one [acceptance] line (run pytest -s to see them all)
and fails loudly if its bound is missed.
"""

import json
import math
import time

import numpy as np

from branchsim import (
    ExperimentSpec,
    apply_unitary,
    build_detection_unitary,
    chain_layout,
    coefficient_independence_check,
    initial_state,
    no_signaling_check,
    normalize,
    observer_coherence,
    phase_flip_perturbation,
    product_state,
    record_cycle_perturbation,
    reduced_density_matrix,
    run_appendix_rotation,
    run_measurement_chain,
    superpose,
    von_neumann_entropy,
)
from branchsim.cli import main
from oracles import dense_amplitudes, naive_entropy_bits, naive_partial_trace, version_labels

RNG_SEED = 20260810


def conclude(criterion, ok, detail):
    print(f"[acceptance] criterion {criterion}: {detail} -> {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {criterion} failed: {detail}"


def unit_coefficients(rng, n):
    v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    return tuple(v / np.linalg.norm(v))


def check(report, name):
    return next(c for c in report.checks if c.name == name)


def test_criterion_1_two_version_reproduction():
    # 1000 seeded random unit pairs; final state must match the two-branch
    # target with residual <= 1e-12, in under five seconds.
    rng = np.random.default_rng(RNG_SEED)
    started = time.perf_counter()
    worst = 0.0
    for _ in range(1000):
        spec = ExperimentSpec(2, unit_coefficients(rng, 2))
        report = run_measurement_chain(spec, checks=("structure",))
        worst = max(worst, report.checks[0].residual)
    elapsed = time.perf_counter() - started
    conclude(
        1,
        worst <= 1e-12 and elapsed < 5.0,
        f"1000 random pairs, max residual {worst:.3e} (tol 1e-12), {elapsed:.2f}s (< 5s)",
    )


def test_criterion_2_n_version_generalization():
    rng = np.random.default_rng(RNG_SEED + 1)
    worst = 0.0
    for n, draws in ((2, 25), (3, 25), (5, 25), (8, 10)):
        for _ in range(draws):
            spec = ExperimentSpec(n, unit_coefficients(rng, n))
            report = run_measurement_chain(spec, checks=("structure",))
            worst = max(worst, report.checks[0].residual)
    conclude(
        2,
        worst <= 1e-12,
        f"N in {{2,3,5,8}} random draws, max residual {worst:.3e} (tol 1e-12)",
    )


def test_criterion_3_coefficient_independence():
    rng = np.random.default_rng(RNG_SEED + 2)
    worst = 0.0
    for n, draws in ((2, 10), (3, 10), (5, 5), (8, 3)):
        for _ in range(draws):
            result = coefficient_independence_check(
                ExperimentSpec(n, unit_coefficients(rng, n))
            )
            worst = max(worst, result.residual)

    # Deliberately non-orthogonal initial versions (overlap 1/sqrt(2)).
    layout = chain_layout(2, 1)
    v1 = product_state(layout, version_labels(layout, 0, detected=False))
    v2 = normalize(
        superpose(
            [
                (1.0, product_state(layout, version_labels(layout, 0, detected=False))),
                (1.0, product_state(layout, version_labels(layout, 1, detected=False))),
            ]
        )
    )
    skewed = coefficient_independence_check(
        ExperimentSpec(2, unit_coefficients(rng, 2)), version_states=[v1, v2]
    )
    worst = max(worst, skewed.residual)
    conclude(
        3,
        worst <= 1e-12,
        f"standalone vs extracted branches, max residual {worst:.3e} "
        f"(tol 1e-12, incl. non-orthogonal versions)",
    )


def test_criterion_4_rotated_basis_and_negative_control(tmp_path):
    rng = np.random.default_rng(RNG_SEED + 3)
    thetas = [2 * math.pi * k / 64 for k in range(64)]
    pairs = [unit_coefficients(rng, 2) for _ in range(100)]
    worst_a = worst_b = worst_c = 0.0
    wanted = ("primed_coefficients", "primed_evolution", "mixed_record")
    specs = [ExperimentSpec(2, coefficients) for coefficients in pairs]
    for report in run_appendix_rotation(specs, thetas, wanted):
        worst_a = max(worst_a, check(report, "primed_coefficients").residual)
        worst_b = max(worst_b, check(report, "primed_evolution").residual)
        worst_c = max(worst_c, check(report, "mixed_record").residual)
    ok = worst_a <= 1e-12 and worst_b <= 1e-12 and worst_c <= 1e-24

    # The negative control must fail part (c), or the check is vacuous.
    config = tmp_path / "appendix.json"
    config.write_text(
        json.dumps(
            {
                "experiment": "appendix_rotation",
                "coefficients": [[0.6, 0.0], [0.8, 0.0]],
                "thetas": [0.7],
            }
        ),
        encoding="utf-8",
    )
    out = tmp_path / "corrupted.json"
    exit_code = main(["run", str(config), "--negative-control", "--out", str(out)])
    poisoned = json.loads(out.read_text(encoding="utf-8"))
    statuses = {c["name"]: c["status"] for c in poisoned["runs"][0]["checks"]}
    control_failed = exit_code == 1 and statuses["mixed_record"] == "fail"

    conclude(
        4,
        ok and control_failed,
        f"64 thetas x 100 pairs: A-4 residual {worst_a:.3e} (1e-12), "
        f"A-5 residual {worst_b:.3e} (1e-12), mixed weight {worst_c:.3e} (1e-24); "
        f"negative control exit {exit_code} with mixed_record "
        f"{statuses['mixed_record']}",
    )


def test_criterion_5_orthogonality_and_no_interference():
    rng = np.random.default_rng(RNG_SEED + 4)
    worst_overlap = 0.0
    worst_coherence = 0.0
    for n, observers, draws in ((2, 1, 20), (3, 2, 10), (5, 1, 5), (8, 2, 2)):
        for _ in range(draws):
            spec = ExperimentSpec(n, unit_coefficients(rng, n), observers=observers)
            report = run_measurement_chain(
                spec, checks=("branch_orthogonality", "observer_coherence")
            )
            worst_overlap = max(worst_overlap, check(report, "branch_orthogonality").residual)
            worst_coherence = max(worst_coherence, check(report, "observer_coherence").residual)
            # Post-detection coherence, recomputed from the midpoint state.
            layout = report.final_state.layout
            midpoint = apply_unitary(
                build_detection_unitary(layout), initial_state(layout, spec.coefficients)
            )
            worst_coherence = max(worst_coherence, observer_coherence(midpoint, "Obs1"))
    conclude(
        5,
        worst_overlap <= 1e-12 and worst_coherence <= 1e-12,
        f"branch overlap {worst_overlap:.3e}, observer coherence "
        f"{worst_coherence:.3e} (both tol 1e-12, post-detection and post-perception)",
    )


def test_criterion_6_multi_observer_agreement():
    rng = np.random.default_rng(RNG_SEED + 5)
    worst = 0.0
    for observers in (2, 3):
        for n in (2, 3, 5):
            for _ in range(10):
                spec = ExperimentSpec(n, unit_coefficients(rng, n), observers=observers)
                report = run_measurement_chain(spec, checks=("observer_agreement",))
                worst = max(worst, report.checks[0].residual)
    conclude(
        6,
        worst <= 1e-24,
        f"2 and 3 observers, disagreement weight {worst:.3e} (tol 1e-24)",
    )


def test_criterion_7_no_signaling():
    rng = np.random.default_rng(RNG_SEED + 6)
    worst = 0.0
    for n, photon_model in ((2, False), (2, True), (3, False)):
        layout = chain_layout(n, 1, photon_model=photon_model)
        for _ in range(10):
            spec = ExperimentSpec(
                n, unit_coefficients(rng, n), photon_model=photon_model
            )
            for probe in (
                phase_flip_perturbation(layout, 1),
                record_cycle_perturbation(layout, 1),
            ):
                result = no_signaling_check(spec, probe)
                worst = max(worst, result.residual)
    conclude(
        7,
        worst <= 1e-12,
        f"phase and permutation probes on version 2, branch-1 drift {worst:.3e} "
        f"(tol 1e-12)",
    )


def test_criterion_8_analysis_oracle_equivalence():
    # Frozen value computed with the brute-force partial-trace plus
    # eigendecomposition oracle for |a|^2 = (0.36, 0.64).
    frozen = 0.9426831892554921

    spec = ExperimentSpec(2, (0.6, 0.8))
    report = run_measurement_chain(spec, checks=["structure"])
    rho = reduced_density_matrix(report.final_state, ["Obs1"])
    entropy = von_neumann_entropy(rho)

    layout = report.final_state.layout
    dims = [r.dimension for r in layout.registers]
    oracle_rho = naive_partial_trace(
        dense_amplitudes(report.final_state), dims, [layout.position("Obs1")]
    )
    oracle_entropy = naive_entropy_bits(oracle_rho)

    drift = 0.0
    rng = np.random.default_rng(RNG_SEED + 7)
    for _ in range(10):
        coefficients = unit_coefficients(rng, 2)
        rerun = run_measurement_chain(ExperimentSpec(2, coefficients), checks=["structure"])
        measured = von_neumann_entropy(
            reduced_density_matrix(rerun.final_state, ["Obs1"])
        )
        w = abs(coefficients[0]) ** 2
        expected = naive_entropy_bits(np.diag([w, 1 - w]))
        drift = max(drift, abs(measured - expected))

    ok = (
        abs(entropy - frozen) <= 1e-9
        and abs(entropy - oracle_entropy) <= 1e-9
        and drift <= 1e-9
    )
    conclude(
        8,
        ok,
        f"observer entropy {entropy:.16f} vs frozen oracle {frozen:.16f} "
        f"(tol 1e-9), random-draw drift {drift:.3e}",
    )


def test_criterion_9_deterministic_reports(tmp_path):
    config = tmp_path / "sweep.json"
    config.write_text(
        json.dumps(
            {
                "experiment": "generalized",
                "n_versions": 3,
                "coefficients": {"random": 5},
                "observers": 2,
                "seed": 424242,
            }
        ),
        encoding="utf-8",
    )
    out1, out2 = tmp_path / "r1.json", tmp_path / "r2.json"
    code1 = main(["run", str(config), "--out", str(out1)])
    code2 = main(["run", str(config), "--out", str(out2)])
    first = json.loads(out1.read_text(encoding="utf-8"))
    second = json.loads(out2.read_text(encoding="utf-8"))
    first.pop("timings")
    second.pop("timings")
    identical = json.dumps(first, sort_keys=True).encode() == json.dumps(
        second, sort_keys=True
    ).encode()
    conclude(
        9,
        code1 == 0 and code2 == 0 and identical,
        "same config + seed twice, reports byte-identical after dropping timings",
    )
