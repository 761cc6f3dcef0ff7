"""Named verification checks runnable from scenario configs.

Each check measures one identity or bound on the objects a scenario built
(grid, metric, bundle, weight, generator frame, operators, forms) and
returns the worst case as a single number; the rule it registers with
judges that number against the tolerance.  This is the only module that
draws trial data; the library modules only compute.  Random data comes
from the counter-based generator keyed by the scenario seed and the check
name, so repeated runs see identical draws and checks can execute
concurrently without sharing state.

The pointwise identities (multiindex-formulas, leibniz-rule and
curvature-commutator) are checked strip by strip over the windows of
the grid (ChartGrid.windows), so a trial's fields are held one window at
a time: about grid._WINDOW_POINTS points, one window on a 129^2 grid and
about four 128-row strips on 513^2.  Each trial is drawn once on the
whole grid and sampled, differenced and compared on each window, whose
halo holds one stencil radius per difference the identity takes (two
for a second derivative, one for leibniz-rule), so its core gets the
whole grid's bits.  The sup of each error and of its scale is reduced
over the cores before the one division, so the measured value is the
whole grid's float.  The checks that integrate stay on the whole grid:
np.sum adds pairwise in blocks set by the array's extent, so a sum
split into strips would round differently.
"""

import dataclasses
import functools
import inspect
import itertools
import math

import numpy as np

from .bidiff import (
    BidiffSpec,
    assemble_divergence_form,
    dirichlet_form,
    l2_pairing,
    weighted_pairings,
)
from .bundles import BundleSpec, TensorSection, magnetic_example_bundle, magnetic_phase
from .calculus import (
    _add_rows,
    _coordinate_directional,
    covariant_derivative,
    curvature,
    directional_derivative,
    divergence,
    formal_adjoint_directional,
    multiindex_derivative,
    tower,
)
from .errors import ConfigError, ResolutionError
from .generators import (
    divergence_via_generators,
    nabla_via_generators,
    reconstruction_defect,
)
from .norms import (
    conformal_weighted_norms,
    covering_multiplicity,
    covering_norm,
    lp_norm,
    multiplication_constant,
    sobolev_norm,
    strict_max,
)
from .operators import (
    MixedOpSpec,
    MixedTerm,
    apply_mixed_op,
    apply_nabla_op,
    mapping_constant,
    mixed_to_nabla,
    nabla_to_mixed,
    perturbed_norms,
    reorder_generators,
)
from .reports import NormRow
from .sections import (
    random_bump_section,
    random_section,
    random_skew_potentials,
    random_trig_field,
    random_vector_field,
    seeded_rng,
)

CHECKS = {}

_TINY = 1e-300

# verdict rule -> (the report's bound, when a measured value passes at a
# tolerance); a NaN compares false, so it fails every rule, as does an inf
RULES = {
    "residual": (None, lambda measured, tolerance: measured <= tolerance),
    "bound-ratio": (1.0, lambda measured, tolerance: measured <= 1.0 + tolerance),
    "informational": (None, lambda measured, tolerance: math.isfinite(measured)),
}


def _is_number(value):
    """A JSON number; a bool is neither a number nor an integer."""
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _is_int(value, low=0):
    return _is_number(value) and isinstance(value, int) and value >= low


def _is_positive(value):
    return _is_number(value) and 0 < value < math.inf


def _exponent(value):
    """A config exponent, a number >= 1 or the string "inf", as a float; else None."""
    if isinstance(value, str):
        return math.inf if value.strip().lower() in ("inf", "infinity") else None
    return float(value) if _is_number(value) and value >= 1 else None


def _listed(test, want):
    """Rule for a non-empty list whose items pass test."""
    return (
        lambda v: isinstance(v, (list, tuple)) and bool(v) and all(map(test, v)),
        f"a non-empty list of {want}",
    )


def _check_keys(cfg, allowed, what):
    extra = sorted(set(cfg) - set(allowed))
    if extra:
        raise ConfigError(f"{what} has unknown keys {extra}")


def _need(cfg, key, what):
    if key not in cfg:
        raise ConfigError(f"{what} is missing the {key!r} entry")
    return cfg[key]


def _check_rules(cfg, rules, what):
    """Each key of cfg that rules names must pass its (test, want) rule."""
    for key, (test, want) in rules.items():
        if key in cfg and not test(cfg[key]):
            raise ConfigError(f"{what} {key} must be {want}, got {cfg[key]!r}")


# check parameter -> (test, what a valid value is); entries are stored as
# written, since the report digest hashes them
_COUNT = (lambda v: _is_int(v, 1), "an integer >= 1")
_EXPONENT = (lambda v: _exponent(v) is not None, "a number >= 1 or 'inf'")
_PARAM_RULES = {
    **dict.fromkeys(("trials", "pairs", "coverings", "specs", "max_order"), _COUNT),
    **dict.fromkeys(("p", "q", "r"), _EXPONENT),
    **dict.fromkeys(("orders", "half_orders"), _listed(_is_int, "integers >= 0")),
    **dict.fromkeys(("form", "operator"), (lambda v: isinstance(v, str), "a name")),
    "s": (_is_int, "an integer >= 0"),
    "tolerance": (_is_positive, "a finite positive number"),
    "exponents": _listed(_EXPONENT[0], "numbers >= 1 or 'inf'"),
}
# check -> rules that narrow _PARAM_RULES for that check's parameters
_CHECK_RULES = {
    "norm-equivalence": {
        "p": (lambda v: _exponent(v) < math.inf, "a finite number >= 1"),
    },
    "weighted-duality": {
        "p": (lambda v: 1 < _exponent(v) < math.inf, "a number in (1, inf)"),
    },
}


def register(name, rule):
    """Add a check to the registry under its config name and verdict rule.

    The check returns (measured, norm rows); its parameters after ctx are
    its config keys, besides the "tolerance" that every entry carries.  The
    registered function takes (ctx, entry), calls the check with
    check_params(name, entry) and judges measured by the rule.
    """
    bound, passes = RULES[rule]

    def wrap(fn):
        @functools.wraps(fn)
        def run(ctx, entry):
            measured, rows = fn(ctx, **check_params(name, entry))
            measured = float(measured)
            return {
                "measured": measured,
                "bound": bound,
                "passed": passes(measured, entry["tolerance"]),
                "norms": list(rows),
            }

        params = list(inspect.signature(fn).parameters.values())[1:]
        CHECKS[name] = (run, {param.name: param.default for param in params}, rule)
        return run

    return wrap


def check_params(name, entry):
    """The keyword arguments of check name for a config entry.

    The entry holds "tolerance", maybe "check", and parameters that pass
    their rules, in _PARAM_RULES and the check's own _CHECK_RULES; the rest
    take their defaults, and exponents become floats.
    "tolerance" is an argument only of a check that declares it.
    """
    if name not in CHECKS:
        raise ResolutionError(f"unknown check {name!r}")
    defaults = CHECKS[name][1]
    what = f"check {name!r}"
    _check_keys(entry, ("check", "tolerance", *defaults), what)
    _need(entry, "tolerance", what)
    _check_rules(entry, _PARAM_RULES, what)
    _check_rules(entry, _CHECK_RULES.get(name, {}), what)
    params = {key: entry.get(key, default) for key, default in defaults.items()}
    for key, value in params.items():
        if key in ("p", "q", "r"):
            params[key] = _exponent(value)
        elif key == "exponents":
            params[key] = [_exponent(p) for p in value]
    return params


def _worst(trials, per_trial, start=0.0):
    """The largest of start and per_trial(t) for t < trials, taken in trial
    order; a NaN wins.  Each trial runs in its own call, so none of its
    fields is still alive while the next trial builds its own."""
    return strict_max(start, *map(per_trial, range(trials)))


def _sup_parts(got, want, core=Ellipsis):
    """(sup |got - want|, sup |want|) over core, an index of the grid
    points to read.

    got is spent: want is subtracted from it in place, after sup |want| is
    taken, so no third field is made.
    """
    scale = float(np.max(np.abs(want)[core]))
    got -= want
    return float(np.max(np.abs(got)[core])), scale


def _sup_error(got, want, floor=_TINY):
    """Grid sup of |got - want| over the larger of sup |want| and floor;
    got is spent (_sup_parts)."""
    err, scale = _sup_parts(got, want)
    return err / max(scale, floor)


def _windowed_error(ctx, depth, compare):
    """The worst relative sup error of a pointwise identity, checked one
    window at a time.

    compare(wctx, core) gives one (error, scale) pair per compared
    quantity, each the sup over the window's core, for ctx read on each
    window whose halo holds depth stencil radii (ChartGrid.windows): its
    bundle and metric are the whole grid's, restricted as views.  Each
    quantity's errors and scales are reduced over the windows before they
    are divided, so the quotient is the whole grid's, bit for bit.
    """
    parts = [
        compare(
            dataclasses.replace(
                ctx, grid=win, metric=ctx.metric.on(win), bundle=ctx.bundle.on(win)
            ),
            core,
        )
        for win, core in ctx.grid.windows(depth)
    ]
    ratios = []
    for pairs in zip(*parts):
        errors, scales = zip(*pairs)
        ratios.append(strict_max(*errors) / strict_max(*scales, _TINY))
    return strict_max(0.0, *ratios)


def _rng(ctx, label, trial=0):
    return seeded_rng(ctx.seed, f"{ctx.name}:{label}", trial)


def _norm_row(ctx, s, p, value, bound, passed):
    return NormRow(
        scenario=ctx.name,
        s=int(s),
        p=float(p),
        value=float(value),
        bound=None if bound is None else float(bound),
        passed=bool(passed),
        h=float(max(ctx.grid.h)),
        fd_order=int(ctx.grid.fd_order),
    )


def _require_flat(ctx, what):
    n = ctx.grid.dim
    if not np.allclose(ctx.metric.values, np.eye(n).reshape((n, n) + (1,) * n)):
        raise ConfigError(f"{what} needs the flat metric")


def _require_oscillating_bundle(ctx, what):
    """The potentials of magnetic_example_bundle on the scenario's grid."""
    model = magnetic_example_bundle(ctx.grid).potentials
    if ctx.bundle.fiber_dim != 2 or not np.allclose(ctx.bundle.potentials, model):
        raise ConfigError(f"{what} needs the built-in oscillating-potential bundle")


def _require_gens(ctx, what):
    if ctx.gens is None:
        raise ConfigError(f"{what} needs an embedding in the scenario")
    return ctx.gens


def _require_weight(ctx, what):
    if ctx.weight is None:
        raise ConfigError(f"{what} needs a weight in the scenario")
    return ctx.weight


def _add_swapped(out, v, top, bottom, scale=None):
    """out += scale * (top v_2, bottom v_1), one fiber row at a time through
    one buffer; A_2 v is the pair with top = phase and bottom = -conj(phase).

    Each row is formed as (top v_2), then scaled, then added, the bits of
    the whole pair formed at once and then added.
    """
    buf = None
    for row, (coeff, entry) in enumerate(((top, v[1]), (bottom, v[0]))):
        buf = np.multiply(coeff, entry, out=buf)
        if scale is not None:
            np.multiply(scale, buf, out=buf)
        out[row] += buf


def _formula_parts(ctx, core, bumps, phase, conj_phase, slope):
    """The (error, scale) pairs of (1,2), (2,1) and (2,2) on one window.

    The mixed second derivatives of a section xi against their displayed
    forms for the oscillating potential A_2 = [[0, phase], [-conj(phase),
    0]], phase = e^{i x1^3}, on a flat chart; slope = 3i x1^2 is the factor
    that d_1 brings down from the phase.  The section's own derivatives are
    rendered with the grid stencils; only the potential's derivative uses
    its analytic form, and each form is summed in place, term by term in
    its displayed order.

    (1,2) and (2,2) are walked together, sharing their nabla_2 step, and
    (2,1) last.  Each form is built only once its result exists, compared
    with it at once (the result is spent on the comparison) and freed with
    it before the next form is built.
    """
    grid = ctx.grid
    phase, conj_phase, slope = map(grid.restrict, (phase, conj_phase, slope))
    sec = bumps.section(grid)
    xi = sec.values
    neg_conj = -conj_phase
    got12, got22 = multiindex_derivative(sec, [(1, 2), (2, 2)], ctx.bundle, ctx.metric)
    d2 = grid.diff(xi, 1)
    want = grid.diff(d2, 1)
    _add_swapped(want, d2, phase, neg_conj, 2)
    want -= xi
    err22 = _sup_parts(got22.values, want, core)
    del got22, want
    want = grid.diff(d2, 0)
    del d2
    _add_swapped(want, xi, phase, conj_phase, slope)
    d1 = grid.diff(xi, 0)
    _add_swapped(want, d1, phase, neg_conj)
    err12 = _sup_parts(got12.values, want, core)
    del got12, want
    want = grid.diff(d1, 1)
    _add_swapped(want, d1, phase, neg_conj)
    del d1
    got21 = multiindex_derivative(sec, (2, 1), ctx.bundle, ctx.metric)
    return err12, _sup_parts(got21.values, want, core), err22


def _formula_error(ctx, trial, phase, conj_phase, slope):
    """One trial of multiindex-formulas: its worst relative error.  The
    section is drawn once and sampled on each window, whose halo covers
    the two differences of a second derivative."""
    bumps = random_bump_section(
        ctx.grid, 0, 2, _rng(ctx, "multiindex-formulas", trial), kappa_max=1.5
    )
    return _windowed_error(
        ctx, 2, lambda wc, core: _formula_parts(wc, core, bumps, phase, conj_phase, slope)
    )


@register("multiindex-formulas", rule="residual")
def check_multiindex_formulas(ctx, trials=20):
    """Mixed second derivatives against their displayed closed forms."""
    _require_flat(ctx, "the closed-form check")
    _require_oscillating_bundle(ctx, "the closed-form check")
    # the phase and its slope on the x1 axis, broadcast over x2
    x1 = ctx.grid.coords[0]
    phase = magnetic_phase(ctx.grid)
    conj_phase = np.conj(phase)
    slope = 3j * x1**2
    return _worst(
        trials, lambda trial: _formula_error(ctx, trial, phase, conj_phase, slope)
    ), ()


def _leibniz_parts(ctx, core, a_field, bumps):
    """The (error, scale) pair of leibniz-rule on one window, ordered so
    that few fields are alive at once.

    a is sampled together with d_1 a, before u.  Then for each direction
    k, rhs_k = (nabla_k a) u, with nabla_k a = d_k a + A_k a - a A_k (the
    products skipped on a dead k); the partial is freed once rhs_k is
    formed, and rhs_k += a nabla_k u, with nabla_k u made and freed one
    direction at a time.  Each further d_k a is sampled alone, only then:
    sampled with a, the partials would all be alive at once, at least 8
    rank-0 sections on the one window of a 129^2 grid against 7.5.
    Last comes a u, with a and u freed before nabla(a u) is made; the
    scale is sup |nabla(a u)| over every block.  Every product with a
    potential or with nabla_k u adds one row at a time.
    """
    grid = ctx.grid
    pots = ctx.bundle.potentials
    a, nabla_a = a_field.sample(grid, [(), (0,)])
    u = bumps.section(grid)
    grid.check_support(u.values, grid.stencil_radius)
    rhs = []
    for k in range(grid.dim):
        if nabla_a is None:
            nabla_a = a_field.sample(grid, (k,))
        if k in ctx.bundle.live:
            _add_rows(nabla_a, 0, "b...,bc...->c...", pots[k], a)
            _add_rows(nabla_a, 0, "b...,bc...->c...", a, pots[k], subtract=True)
        rhs.append(np.einsum("ab...,b...->a...", nabla_a, u.values))
        nabla_a = None
        # a rank-0 section has no Christoffel term: on any metric, nabla_k u
        # is its directional derivative, the bits of covariant_derivative's
        # block k
        grad_u = _coordinate_directional(u.values, k, 0, ctx.bundle)
        _add_rows(rhs[k], 0, "b...,b...->...", a, grad_u)
        del grad_u
    au = TensorSection(grid, 0, np.einsum("ab...,b...->a...", a, u.values), u.fiber_dim)
    del a, u
    lhs = covariant_derivative(au, ctx.bundle, ctx.metric).values
    del au
    errors, scales = zip(*(_sup_parts(r, want, core) for r, want in zip(rhs, lhs)))
    return [(strict_max(*errors), strict_max(*scales))]


def _leibniz_error(ctx, trial):
    """One trial of leibniz-rule: a and u are drawn once and sampled on
    each window, whose halo covers one difference."""
    d = ctx.bundle.fiber_dim
    a_field = random_trig_field(ctx.grid.dim, (d, d), _rng(ctx, "leibniz-rule", trial))
    bumps = random_bump_section(ctx.grid, 0, d, _rng(ctx, "leibniz-section", trial))
    return _windowed_error(
        ctx, 1, lambda wctx, core: _leibniz_parts(wctx, core, a_field, bumps)
    )


@register("leibniz-rule", rule="residual")
def check_leibniz_rule(ctx, trials=5):
    """nabla(a u) = (nabla a) u + (1 (x) a) nabla u for Hom coefficients."""
    return _worst(trials, lambda trial: _leibniz_error(ctx, trial)), ()


def _commutator_parts(ctx, core, bumps, blocks, pairs):
    """The (error, scale) pair of each direction pair on one window: the
    commutator nabla_kl u - nabla_lk u against R_kl u, each subtracted in
    place, over the larger of sup |R_kl u| and sup |u|."""
    u = bumps.section(ctx.grid)
    idxs = [idx for k, l in pairs for idx in ((k, l), (l, k))]
    # a 1d chart has no pair, and an empty list would read as one empty
    # multi-index
    terms = multiindex_derivative(u, idxs, ctx.bundle, ctx.metric) if idxs else []
    u_sup = float(np.max(np.abs(u.values)[core]))
    parts = []
    for r_kl, kl, lk in zip(blocks, terms[::2], terms[1::2]):
        lhs = kl.values
        lhs -= lk.values
        # R_kl acting pointwise on the fiber of a rank-0 section
        rhs = np.einsum("ab...,b...->a...", ctx.grid.restrict(r_kl), u.values)
        error, scale = _sup_parts(lhs, rhs, core)
        parts.append((error, strict_max(scale, u_sup)))
    return parts


def _commutator_error(ctx, trial, blocks, pairs):
    """One trial of curvature-commutator over every direction pair; blocks
    holds the curvature R_kl of each pair as (d, d) + the shape the
    potentials vary over.  u is drawn once and sampled on each window,
    whose halo covers the two differences of a second derivative."""
    rng = _rng(ctx, "curvature-commutator", trial)
    bumps = random_bump_section(ctx.grid, 0, ctx.bundle.fiber_dim, rng)
    return _windowed_error(
        ctx, 2, lambda wctx, core: _commutator_parts(wctx, core, bumps, blocks, pairs)
    )


@register("curvature-commutator", rule="residual")
def check_curvature_commutator(ctx, trials=5):
    """(nabla_kl - nabla_lk) u = R_kl u on every direction pair.

    Only the R_kl blocks of the pairs k < l are kept across the trials,
    each copied out; the full (n, n, d, d) curvature field is freed once
    they are copied.
    """
    pairs = list(itertools.combinations(range(1, ctx.grid.dim + 1), 2))
    r = curvature(ctx.bundle).values
    blocks = [r[k - 1, l - 1].copy() for k, l in pairs]
    del r
    return _worst(
        trials, lambda trial: _commutator_error(ctx, trial, blocks, pairs)
    ), ()


@register("adjoint-pairing", rule="residual")
def check_adjoint_pairing(ctx, pairs=20):
    """integral (nabla_X xi, eta) + (xi, (nabla_X + div X) eta) = 0."""
    grid = ctx.grid
    d = ctx.bundle.fiber_dim

    def defect(trial):
        xi = random_section(grid, 0, d, _rng(ctx, "adjoint-xi", trial))
        eta = random_section(grid, 0, d, _rng(ctx, "adjoint-eta", trial))
        x_field = random_vector_field(grid, _rng(ctx, "adjoint-field", trial))
        adj = formal_adjoint_directional(x_field, ctx.bundle, ctx.metric)
        dxi = directional_derivative(xi, x_field, ctx.bundle, ctx.metric)
        lhs = l2_pairing(dxi, eta, ctx.bundle, ctx.metric)
        rhs = l2_pairing(xi, adj(eta), ctx.bundle, ctx.metric)
        scale = max(
            lp_norm(xi, 2, ctx.metric, ctx.bundle)
            * lp_norm(eta, 2, ctx.metric, ctx.bundle),
            _TINY,
        )
        return abs(lhs - rhs) / scale

    return _worst(pairs, defect), ()


def _covering_with_multiplicity(grid, k, rng):
    """k closed boxes covering the chart whose common core has k layers.

    The first two boxes split axis one with an overlap window; the rest nest
    inside that window, so the multiplicity is exactly k and the union is
    the whole box.
    """
    lo, hi = grid.box[0]
    mid = 0.5 * (lo + hi)
    half = 0.5 * (hi - lo)
    rest = tuple(grid.box[1:])

    def strip(a, b):
        return ((float(a), float(b)),) + rest

    if k == 1:
        return [tuple(grid.box)]
    q = mid + float(rng.uniform(-0.25, 0.25)) * half
    w = (0.2 + float(rng.uniform(0.0, 0.1))) * half
    boxes = [strip(lo, q + w), strip(q - w, hi)]
    for j in range(k - 2):
        f = 1.0 - 0.2 * (j + 1)
        boxes.append(strip(q - w * f, q + w * f))
    return boxes


@register("covering-bounds", rule="residual")
def check_covering_bounds(
    ctx, tolerance, coverings=10, s=1, exponents=(1.0, 2.0, math.inf)
):
    """norm <= covering norm <= N^{1/p} norm, equality at p = inf."""
    grid = ctx.grid
    d = ctx.bundle.fiber_dim
    boxes = [
        _covering_with_multiplicity(grid, 1 + t % 4, _rng(ctx, "covering-boxes", t))
        for t in range(coverings)
    ]
    if any(covering_multiplicity(b) != 1 + t % 4 for t, b in enumerate(boxes)):
        return math.inf, ()
    u = random_section(grid, 0, d, _rng(ctx, "covering-section"))
    levels = tower(u, ctx.bundle, ctx.metric, s)
    bases = [sobolev_norm(levels, p, ctx.bundle, ctx.metric) for p in exponents]
    rows = []

    def violation(trial):
        violations = []
        for p, base in zip(exponents, bases):
            value, mult = covering_norm(levels, boxes[trial], p, ctx.bundle, ctx.metric)
            factor = 1.0 if math.isinf(p) else mult ** (1.0 / p)
            upper = factor * base
            if math.isinf(p):
                v = abs(value - base) / max(base, _TINY)
            else:
                v = max(base - value, value - upper) / max(base, _TINY)
            violations.append(v)
            rows.append(_norm_row(ctx, s, p, value, upper, v <= tolerance))
        return strict_max(*violations)

    return _worst(coverings, violation), rows


@register("generator-identities", rule="residual")
def check_generator_identities(ctx, trials=5):
    """Frame duality, reconstruction, and the two-route derivative laws."""
    gens = _require_gens(ctx, "the generator check")
    grid = ctx.grid
    d = ctx.bundle.fiber_dim

    def defect(trial):
        x = random_vector_field(grid, _rng(ctx, "gen-vector", trial))
        back = np.einsum("jm...,ji...,i...->m...", gens.z, gens.xi, x)
        vector = _sup_error(back, x, 1.0)
        omega = random_vector_field(grid, _rng(ctx, "gen-covector", trial))
        back = np.einsum("jm...,ji...,i...->m...", gens.xi, gens.z, omega)
        covector = _sup_error(back, omega, 1.0)
        u = random_section(grid, 0, d, _rng(ctx, "gen-section", trial))
        direct = covariant_derivative(u, ctx.bundle, ctx.metric)
        framed = nabla_via_generators(u, gens, ctx.bundle, ctx.metric)
        nabla = _sup_error(framed.values, direct.values)
        field = random_vector_field(grid, _rng(ctx, "gen-div", trial))
        via = divergence_via_generators(field, gens, ctx.metric)
        div = _sup_error(via, divergence(field, ctx.metric), 1.0)
        return strict_max(vector, covector, nabla, div)

    return _worst(trials, defect, start=reconstruction_defect(gens)), ()


@register("norm-equivalence", rule="bound-ratio")
def check_norm_equivalence(ctx, trials=25, s=2, p=2.0):
    """Perturbed-connection norms stay within the recursion constant."""
    grid = ctx.grid
    d = ctx.bundle.fiber_dim

    def ratio(trial):
        u = random_section(grid, 0, d, _rng(ctx, "equivalence-section", trial))
        scale = 0.5 + 1.5 * float(_rng(ctx, "equivalence-scale", trial).random())
        pert = random_skew_potentials(
            grid, d, _rng(ctx, "equivalence-potential", trial), scale=scale
        )
        base, other, c = perturbed_norms(u, pert, s, p, ctx.bundle, ctx.metric)
        base, other = max(base, _TINY), max(other, _TINY)
        return strict_max(other / (c * base), base / (c * other))

    return _worst(trials, ratio), ()


@register("multiplication-property", rule="bound-ratio")
def check_multiplication_property(ctx, trials=25, s=2, p=math.inf, q=2.0, r=2.0):
    """||a u|| <= C ||a|| ||u|| with the recursion constant C."""
    grid = ctx.grid
    d = ctx.bundle.fiber_dim
    constant = multiplication_constant(s, p, q, r)
    scalar = BundleSpec(grid, 1)

    def norm(v, exponent, bundle):
        return sobolev_norm(tower(v, bundle, ctx.metric, s), exponent, bundle, ctx.metric)

    def ratio(trial):
        a = random_section(grid, 0, 1, _rng(ctx, "product-factor", trial))
        u = random_section(grid, 0, d, _rng(ctx, "product-section", trial))
        au = TensorSection(grid, 0, a.values * u.values, d)
        bound = constant * norm(a, p, scalar) * norm(u, q, ctx.bundle)
        return norm(au, r, ctx.bundle) / max(bound, _TINY)

    return _worst(trials, ratio), ()


@register("weighted-ratio", rule="residual")
def check_weighted_ratio(ctx, tolerance, orders=(0, 1), p=2.0):
    """Weighted norm against the classical norm of the twisted section."""
    weight = _require_weight(ctx, "the weighted-ratio check")
    grid = ctx.grid
    d = ctx.bundle.fiber_dim
    rows = []

    def deviation(i):
        s = orders[i]
        bumps = random_bump_section(
            grid, 0, d, _rng(ctx, "weighted-ratio", s), sigma_range=(0.1, 0.12)
        )
        u = bumps.section(grid)
        weighted, classical = conformal_weighted_norms(
            u, weight, s, p, ctx.bundle, ctx.metric
        )
        off = abs((classical / weighted if weighted else math.inf) - 1.0)
        rows.append(_norm_row(ctx, s, p, weighted, classical, off <= tolerance))
        return off

    return _worst(len(orders), deviation), rows


def _random_mixed_spec(ctx, gens, trial, max_order):
    grid = ctx.grid
    d = ctx.bundle.fiber_dim
    n_gen = gens.n_gens
    rng = _rng(ctx, "rewrite-spec", trial)
    terms = []
    for _ in range(1 + trial % 2):
        length = int(rng.integers(1, max_order + 1))
        labels = tuple(int(l) for l in rng.integers(1, n_gen + 1, size=length))
        coeff = random_trig_field(grid.dim, (d, d), rng).sample(grid)
        terms.append(MixedTerm(coeff, labels))
    return MixedOpSpec(ctx.bundle, ctx.bundle, ctx.metric, terms)


@register("operator-rewrite", rule="residual")
def check_operator_rewrite(ctx, specs=10, max_order=2):
    """Mixed -> ladder -> mixed -> sorted preserves the induced map."""
    gens = _require_gens(ctx, "the rewrite check")
    grid = ctx.grid
    d = ctx.bundle.fiber_dim
    needed = (max_order + 1) * grid.stencil_radius
    if grid.support_margin < needed:
        raise ConfigError(
            f"rewrite at order {max_order} needs a chart margin of {needed} "
            f"layers, the grid has {grid.support_margin}"
        )

    def residual(trial):
        spec = _random_mixed_spec(ctx, gens, trial, max_order)
        u = random_bump_section(
            grid, 0, d, _rng(ctx, "rewrite-section", trial)
        ).section(grid)
        one = apply_mixed_op(spec, u, gens)
        ladder = mixed_to_nabla(spec, gens)
        back = nabla_to_mixed(ladder, gens)
        ordered = reorder_generators(back, gens, ctx.bundle)
        if any(t.labels != tuple(sorted(t.labels)) for t in ordered.terms):
            return math.inf
        two = apply_mixed_op(ordered, u, gens)
        return _sup_error(two.values, one.values)

    return _worst(specs, residual), ()


@register("mapping-bound", rule="bound-ratio")
def check_mapping_bound(ctx, operator=None, s=1, p=2.0, trials=10):
    """Observed operator norms against the certified coefficient bound."""
    if operator not in ctx.nabla_ops:
        raise ResolutionError(f"scenario defines no operator named {operator!r}")
    spec = ctx.nabla_ops[operator]
    constant = mapping_constant(spec, s, p)

    def ratio(trial):
        # keyed without the scenario name, unlike _rng; a new key moves the reports
        rng = seeded_rng(ctx.seed, "mapping-bound", trial)
        u = random_section(spec.grid, 0, spec.source.fiber_dim, rng)
        us = tower(u, spec.source, spec.metric, s + spec.order)
        den = sobolev_norm(us, p, spec.source, spec.metric)
        pu = tower(apply_nabla_op(spec, us), spec.target, spec.metric, s)
        num = sobolev_norm(pu, p, spec.target, spec.metric)
        return num / den if den != 0 else 0.0

    return _worst(trials, ratio) / max(constant, _TINY), ()


def _ladder_form(ctx, half_order):
    grid = ctx.grid
    n = grid.dim
    d = ctx.bundle.fiber_dim
    table = {}
    for i in range(half_order + 1):
        dim = n**i * d
        table[(i, i)] = np.eye(dim, dtype=complex).reshape((dim, dim) + (1,) * n)
    return BidiffSpec(ctx.bundle, ctx.bundle, ctx.metric, half_order, table)


def _forms(ctx, form, half_orders):
    """The scenario form named form, else the identity form of each half order."""
    if form is None:
        return [_ladder_form(ctx, m) for m in half_orders]
    if form not in ctx.bidiff_forms:
        raise ResolutionError(f"scenario defines no form named {form!r}")
    return [ctx.bidiff_forms[form]]


@register("divergence-duality", rule="residual")
def check_divergence_duality(ctx, pairs=10, half_orders=(1,), form=None):
    """<P u, w> = B(u, w) for the weakly assembled operator."""
    gens = _require_gens(ctx, "the duality check")
    grid = ctx.grid
    d = ctx.bundle.fiber_dim
    specs = _forms(ctx, form, half_orders)

    def form_defect(i):
        # one form's operator is alive at a time
        spec = specs[i]
        m = spec.half_order
        op = assemble_divergence_form(spec, gens, spec.cosource, ctx.metric)

        def defect(trial):
            u = random_section(grid, 0, d, _rng(ctx, f"duality-u-{m}", trial))
            w = random_section(grid, 0, d, _rng(ctx, f"duality-w-{m}", trial))
            us = tower(u, ctx.bundle, ctx.metric, max(m, op.order))
            ws = tower(w, ctx.bundle, ctx.metric, m)
            strong = dirichlet_form(spec, us, ws)
            weak = l2_pairing(apply_nabla_op(op, us), w, spec.cosource, ctx.metric)
            denom = max(
                sobolev_norm(us[: m + 1], 2, ctx.bundle, ctx.metric)
                * sobolev_norm(ws, 2, ctx.bundle, ctx.metric),
                _TINY,
            )
            return abs(weak - strong) / denom

        return _worst(pairs, defect)

    return _worst(len(specs), form_defect), ()


@register("weighted-duality", rule="residual")
def check_weighted_duality(ctx, pairs=5, form=None, p=2.0):
    """Two-picture Dirichlet pairing under an admissible weight and, with an
    embedding, the weak-form pairing <P u, w> against it."""
    weight = _require_weight(ctx, "the weighted-duality check")
    grid = ctx.grid
    d = ctx.bundle.fiber_dim
    (spec,) = _forms(ctx, form, (1,))
    pairings = weighted_pairings(spec, weight, p)
    m = depth = spec.half_order
    op = None
    if ctx.gens is not None:
        op = assemble_divergence_form(spec, ctx.gens, spec.cosource, spec.metric)
        depth = max(m, op.order)

    def defect(trial):
        u = random_section(grid, 0, d, _rng(ctx, "weighted-u", trial))
        w = random_section(grid, 0, d, _rng(ctx, "weighted-w", trial))
        us = tower(u, spec.source, spec.metric, depth)
        weighted, rescaled = pairings(us, tower(w, spec.cosource, spec.metric, m))
        two = abs(weighted - rescaled) / max(abs(weighted), abs(rescaled), _TINY)
        if op is None:
            return two
        weak = l2_pairing(apply_nabla_op(op, us), w, spec.cosource, spec.metric)
        return strict_max(two, abs(weak - weighted) / max(abs(weighted), _TINY))

    return _worst(pairs, defect), ()


@register("norm-table", rule="informational")
def check_norm_table(ctx, orders=(0, 1, 2), exponents=(2.0,)):
    """Emit a table of Sobolev norms of one reproducible random section.

    A non-finite norm fails its row and becomes the measured value.
    """
    grid = ctx.grid
    d = ctx.bundle.fiber_dim
    u = random_section(grid, 0, d, _rng(ctx, "norm-table"))
    levels = tower(u, ctx.bundle, ctx.metric, max(orders))
    rows = []
    for s in orders:
        for p in exponents:
            value = sobolev_norm(levels[: s + 1], p, ctx.bundle, ctx.metric)
            rows.append(_norm_row(ctx, s, p, value, None, math.isfinite(value)))
    return next((row.value for row in rows if not row.passed), 0.0), rows
