"""Acceptance run: ten numbered criteria, one pass/fail line each.

Each test prints a single summary line and asserts the criterion at its
stated tolerance.  Builtin scenario contexts are reused where a criterion
matches one; the rest build small custom configs through the same
scenario machinery the command line uses.
"""

import time

import numpy as np
import pytest

from nabla_calc.checks import CHECKS
from nabla_calc.scenarios import build_context, builtin_scenario, parse_scenario


def context(name, **overrides):
    return build_context(parse_scenario(builtin_scenario(name)), **overrides)


def custom_context(cfg, **overrides):
    return build_context(parse_scenario(cfg), **overrides)


def run(ctx, check, **params):
    return CHECKS[check][0](ctx, params)


def line(criterion, label, measured, tolerance, passed):
    status = "pass" if passed else "FAIL"
    print(
        f"criterion {criterion:2d} [{label}]: "
        f"measured {measured:.3e} tolerance {tolerance:.1e} -> {status}"
    )
    assert passed, f"criterion {criterion} failed: {measured:.3e} vs {tolerance:.1e}"


def flat_magnetic_config(h, seed, margin=None):
    cfg = {
        "name": "acceptance-magnetic",
        "chart": {"box": [[-1, 1], [-1, 1]], "h": h},
        "metric": {"kind": "flat"},
        "bundle": {"kind": "magnetic-example"},
        "seed": seed,
        "checks": [],
    }
    if margin is not None:
        cfg["chart"]["margin"] = margin
    return cfg


@pytest.fixture(scope="module")
def magnetic_ctx():
    return context("magnetic-example")


def test_criterion_01_second_derivatives_match_closed_forms(magnetic_ctx):
    run(magnetic_ctx, "multiindex-formulas", tolerance=1e-5, trials=1)
    start = time.perf_counter()
    out = run(magnetic_ctx, "multiindex-formulas", tolerance=1e-5, trials=20)
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0, f"20 sections took {elapsed:.1f}s"
    line(1, "oscillating-potential second derivatives", out["measured"], 1e-5,
         out["passed"])


def test_criterion_02_leibniz_and_curvature_identities(magnetic_ctx):
    leib = run(magnetic_ctx, "leibniz-rule", tolerance=1e-5, trials=20)
    curv = run(magnetic_ctx, "curvature-commutator", tolerance=1e-5, trials=20)
    measured = max(leib["measured"], curv["measured"])
    line(2, "Leibniz rule and commutator curvature", measured, 1e-5,
         leib["passed"] and curv["passed"])


def test_criterion_03_adjoint_pairing_flat_and_conformal():
    flat = custom_context(flat_magnetic_config(2 / 256, seed=42))
    cfg = flat_magnetic_config(2 / 256, seed=42)
    cfg["metric"] = {"kind": "conformal", "phi": "0.1*x1*x2 - 0.05*x2"}
    conf = custom_context(cfg)
    out_flat = run(flat, "adjoint-pairing", tolerance=1e-6, pairs=50)
    out_conf = run(conf, "adjoint-pairing", tolerance=1e-6, pairs=50)
    measured = max(out_flat["measured"], out_conf["measured"])
    line(3, "directional derivative adjoint pairing", measured, 1e-6,
         out_flat["passed"] and out_conf["passed"])


def test_criterion_04_covering_multiplicity_bounds():
    ctx = context("covering-suite")
    out = run(ctx, "covering-bounds", tolerance=1e-10, coverings=10, s=1,
              exponents=[1, 2, "inf"])
    line(4, "covering norm two-sided bounds", out["measured"], 1e-10,
         out["passed"])


def test_criterion_05_generator_system_identities():
    sphere = run(context("sphere-ffc"), "generator-identities",
                 tolerance=1e-5, trials=5)
    random = run(context("random-embedding"), "generator-identities",
                 tolerance=1e-5, trials=5)
    measured = max(sphere["measured"], random["measured"])
    line(5, "generator reconstruction and two-route derivatives", measured,
         1e-5, sphere["passed"] and random["passed"])


def test_criterion_06_operator_rewriting_closure():
    ctx = context("random-embedding")
    out = run(ctx, "operator-rewrite", tolerance=1e-4, specs=25, max_order=3)
    line(6, "mixed operator rewrite round trip", out["measured"], 1e-4,
         out["passed"])


def test_criterion_07_explicit_constants_certified():
    ctx = custom_context(flat_magnetic_config(2 / 96, seed=44))
    reports = [
        run(ctx, "norm-equivalence", tolerance=1e-12, trials=34, s=0),
        run(ctx, "norm-equivalence", tolerance=1e-12, trials=33, s=1),
        run(ctx, "norm-equivalence", tolerance=1e-12, trials=33, s=2),
        run(ctx, "multiplication-property", tolerance=1e-9, trials=100,
            s=2, p="inf", q=2, r=2),
    ]
    measured = max(out["measured"] for out in reports)
    line(7, "perturbation and multiplication constants", measured, 1.0,
         all(out["passed"] for out in reports))


def test_criterion_08_weighted_conformal_identity():
    # ell = 0 is an exact change of measure; ell = 1 carries the fixed
    # lower-order twist-derivative correction, so the computed ratio must
    # sit inside [0.99, 1.01] at the default spacing and stabilize under
    # refinement with monotonically shrinking steps.  The order-0 ratio is
    # exact up to the roundoff of its two norms, so its steps need only stay
    # below a roundoff floor; a strict shrink there would read noise
    base_h = 2 / 128
    floor = 64 * np.finfo(float).eps
    worst_default = 0.0
    for ell in (0, 1):
        devs = []
        for k in range(4):
            ctx = context("half-line-weighted", h=base_h / 2**k)
            out = run(ctx, "weighted-ratio", tolerance=0.01, orders=[ell], p=2)
            devs.append(out["measured"])
        assert all(d <= 0.01 for d in devs), f"ell={ell} left [0.99, 1.01]: {devs}"
        changes = [abs(b - a) for a, b in zip(devs, devs[1:])]
        if ell == 0:
            assert all(d <= 1e-12 for d in devs), f"order-0 ratio not exact: {devs}"
            assert all(c <= floor for c in changes), f"order-0 steps: {changes}"
        else:
            for wide, tight in zip(changes, changes[1:]):
                assert tight <= wide, f"ell={ell} refinement not settling: {changes}"
                assert tight < wide or wide == 0.0
        assert devs[-1] <= 1e-3, f"ell={ell} ratio limit too far from 1"
        worst_default = max(worst_default, devs[0])
    line(8, "weighted vs rescaled-metric norm ratio", worst_default, 1e-2, True)


def test_criterion_09_divergence_form_duality():
    outs = []
    for bundle in ({"kind": "trivial", "fiber_dim": 2},
                   {"kind": "magnetic-example"}):
        cfg = flat_magnetic_config(2 / 128, seed=43, margin=8)
        cfg["bundle"] = bundle
        cfg["embedding"] = {"name": "identity"}
        ctx = custom_context(cfg)
        outs.append(run(ctx, "divergence-duality", tolerance=1e-5, pairs=25,
                        half_orders=[1, 2]))
    measured = max(out["measured"] for out in outs)
    line(9, "weak pairing vs assembled divergence form", measured, 1e-5,
         all(out["passed"] for out in outs))


def test_criterion_10_stencil_convergence_order():
    ratios = {}

    def ratio_for(check, coarse_ctx, fine_ctx, **params):
        coarse = run(coarse_ctx, check, tolerance=1.0, **params)["measured"]
        fine = run(fine_ctx, check, tolerance=1.0, **params)["measured"]
        ratios[check] = coarse / fine

    mag_coarse = context("magnetic-example", h=2 / 64)
    mag_fine = context("magnetic-example", h=2 / 128)
    ratio_for("multiindex-formulas", mag_coarse, mag_fine, trials=20)
    ratio_for("leibniz-rule", mag_coarse, mag_fine, trials=20)
    ratio_for("curvature-commutator", mag_coarse, mag_fine, trials=20)

    adj = flat_magnetic_config(2 / 128, seed=42)
    ratio_for("adjoint-pairing", custom_context(adj),
              custom_context(adj, h=2 / 256), pairs=10)

    emb_coarse = context("random-embedding")
    emb_fine = context("random-embedding", h=2 / 192)
    ratio_for("operator-rewrite", emb_coarse, emb_fine, specs=5, max_order=3)

    ratio_for("weighted-duality", context("half-line-weighted"),
              context("half-line-weighted", h=2 / 256),
              form="mass-gradient", pairs=3)

    # identities computed through one shared discrete route have no
    # truncation component; they must sit at the round-off floor instead
    for ctx in (emb_coarse, emb_fine):
        out = run(ctx, "generator-identities", tolerance=1e-10, trials=5)
        assert out["measured"] <= 1e-10

    dd = flat_magnetic_config(2 / 64, seed=43, margin=8)
    dd["bundle"] = {"kind": "trivial", "fiber_dim": 2}
    dd["embedding"] = {"name": "identity"}
    for h in (2 / 64, 2 / 128):
        out = run(custom_context(dd, h=h), "divergence-duality",
                  tolerance=1e-10, pairs=5, half_orders=[1])
        assert out["measured"] <= 1e-10

    worst = min(ratios.values())
    for check, value in sorted(ratios.items()):
        print(f"  halving ratio {check}: {value:.1f}")
    line(10, "two-route residual shrink on h-halving", worst, 12.0,
         worst >= 12.0)
