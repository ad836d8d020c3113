"""Asymptotics of escape rates along shrinking periodic-orbit hole families.

Fix a periodic point x of prime period p (cyclically admissible base word) and
take holes A_nu = the cylinder over nu repetitions of the base word. As nu
grows the hole measure mu_nu shrinks geometrically by the orbit weight c_o,
and the smallest zero z_nu >= 1 of the open inverse zeta admits an expansion

    z_nu = 1 + s_1 mu_nu + s_2 mu_nu^2 + ... + O(mu_nu^{k+1})

whose coefficients come out of a triangular recursion on Taylor data at z = 1.
The first two have closed forms: s_1 = (1 - c_o)/mu(phi) and s_2 = s_1^2 times
an overlap/cofactor bracket. Everything in this module works on the normalized
lattice (block steps, lattice 1) and converts to flow units only where noted.

Only the hole's offset k0 = o (nu - n/p) depends on nu. A family therefore
keeps, from its construction on, every piece of the expansion and of the open
determinant that does not: the leading Taylor terms at z = 1 of (1 - z)G and
of den = 1 - c_o z^o, the series a of g1 = (1 - z)G/den, the two polynomials
that get shifted by z^k0, the nu-free parts of the closed-form s_2, the
product (1 - z)G and mu_t. Term l of ``Polynomial.taylor_at_one`` and of
``_series_quotient`` does not depend on how many terms are asked for, so a
slice of a longer table equals the shorter call, and a sweep over nu computes
the same floats, in the same order, as one that rebuilds every piece.

Every sum of Taylor and series terms the family path takes is a builtin
``sum`` over the terms of the rebuilt pieces in their order: in
``zeta._shifted_taylor`` (the Taylor terms of z^k0 f without the k0 zero
coefficients, whose products are exact zeros ahead of the others; at k0 = 0
it is ``Polynomial.taylor_at_one``) and in ``zeta._series_quotient``. From
Python 3.12 on the builtin ``sum`` of floats is compensated (Neumaier) and
before it adds one term at a time, so the two versions can differ in the
last bits; a sum written as a loop of additions, or as ``math.fsum``, would
match the rebuilt pieces on one of them only. These sums must stay builtin.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import (
    DegenerateLinearTermError,
    NotCyclicallyAdmissibleError,
    NotPrimePeriodError,
    NotReducedError,
)
from .shift import (
    CylinderFunction,
    MarkovShift,
    Word,
    constant_function,
    cylinder_measure,
    is_reduced,
    refine_cylinder_function,
)
from .suspension import SuspensionSystem, _prefix_height, build_suspension
from .zeta import (
    ONE_MINUS_Z,
    Polynomial,
    _closed_and_cofactor,
    _open_determinant,
    _series_quotient,
    _shifted_taylor,
    deflate_at_one,
    smallest_root_geq_one,
)


# ===========================================================================
# Families
# ===========================================================================

#: Taylor terms at z = 1 of (1 - z)G and of den that a family keeps; an
#: expansion of order k reads k + 1 of each, so orders below this slice them.
_TAYLOR_TERMS = 8


@dataclass(frozen=True, eq=False)
class PeriodicOrbitFamily:
    """A periodic point with the precomputed pieces of its hole family.

    The ceiling is refined so its order n is a multiple of the period p (the
    expansion needs the hole words A_nu = base^nu to align with whole periods).
    ``orbit_height`` o is the normalized ceiling sum over one period,
    ``orbit_weight`` c_o the one-period transition weight, and ``deflated`` /
    ``cofactor`` the cached zeta pieces G and C_{t,t} of the closed chain.

    The private fields hold what every nu shares, built once from the public
    ones (``dataclasses.replace`` builds them anew): den = 1 - c_o z^o and its
    first ``_TAYLOR_TERMS`` Taylor terms at z = 1, the series a of (1 - z)G/den
    to as many terms, mu_t = mu([t]), the polynomials (C den)/mu_t and
    G c_o^{1 - n/p}/mu_w that ``expansion_coefficients`` shifts by z^k0, the
    values G(1), G'(1), C(1), C'(1) and the two other nu-free terms of the
    closed-form s_2, and (1 - z)G for ``_family_open_inverse``. Past a
    polynomial's degree its Taylor terms are the 0.0 that
    ``Polynomial.taylor_at_one`` returns there.
    """

    system: SuspensionSystem
    base_word: Word
    period: int
    orbit_height: int
    orbit_weight: float
    word_measure: float
    t_word: Word
    nu_min: int
    deflated: Polynomial
    cofactor: Polynomial
    _den: Polynomial = field(init=False, repr=False)
    _den_series: tuple = field(init=False, repr=False)
    _a_series: tuple = field(init=False, repr=False)
    _mu_t: float = field(init=False, repr=False)
    _head: Polynomial = field(init=False, repr=False)
    _tail: Polynomial = field(init=False, repr=False)
    _bracket: tuple = field(init=False, repr=False)
    _closed: Polynomial = field(init=False, repr=False)

    def __post_init__(self):
        c_o, o, g_poly, c_poly = self.orbit_weight, self.orbit_height, self.deflated, self.cofactor
        den = Polynomial((1.0,) + (0.0,) * (o - 1) + (-c_o,))
        # den(1) = 1 - c_o > 0 (build_family), so the quotients need no cancellation.
        den_series = den.taylor_at_one(_TAYLOR_TERMS)
        a_series = _series_quotient(
            _times_one_minus_z(g_poly.taylor_at_one(_TAYLOR_TERMS - 1)),
            den_series,
            _TAYLOR_TERMS - 1,
        )
        mu_t = cylinder_measure(self.system.base, self.t_word)
        tail_weight = c_o ** (1 - self.order_over_period)
        mass = self.system.mass_normalized
        bracket = (
            g_poly.derivative()(1.0),
            g_poly(1.0),
            c_o * o / (1.0 - c_o),
            c_poly.derivative()(1.0),
            c_poly(1.0),
            mass * tail_weight / (self.word_measure * (1.0 - c_o)),
        )
        for name, value in (
            ("_den", den),
            ("_den_series", den_series),
            ("_a_series", a_series),
            ("_mu_t", mu_t),
            ("_head", (c_poly * den).scale(1.0 / mu_t)),
            ("_tail", g_poly.scale(tail_weight / self.word_measure)),
            ("_bracket", bracket),
            ("_closed", ONE_MINUS_Z * g_poly),
        ):
            object.__setattr__(self, name, value)

    @property
    def order_over_period(self) -> int:
        return self.system.order // self.period


def build_family(
    shift: MarkovShift,
    ceiling: CylinderFunction,
    base_word: Word,
) -> PeriodicOrbitFamily:
    """Validate a base word and precompute its hole-family data.

    The word must be cyclically admissible (the wrap transition included),
    of prime period, and reduced as a periodic word. An orbit weight c_o = 1
    (a deterministic cycle) leaves nothing to expand in and is rejected.
    """
    word = tuple(base_word)
    p = len(word)
    if p < 1:
        raise NotCyclicallyAdmissibleError("base word must be nonempty")
    if any(a < 0 or a >= shift.alphabet_size for a in word):
        raise NotCyclicallyAdmissibleError(f"base word {word} leaves the alphabet")
    for i in range(p):
        a, b = word[i], word[(i + 1) % p]
        if not shift.transitions[a, b] > 0.0:
            raise NotCyclicallyAdmissibleError(
                f"transition {a} -> {b} in the closed orbit of {word} is forbidden"
            )
    for d in range(1, p):
        if p % d == 0 and word == word[:d] * (p // d):
            raise NotPrimePeriodError(f"base word {word} is a power of {word[:d]}")
    if not is_reduced(shift, word * 2):
        raise NotReducedError(f"periodic word {word} admits no last-letter substitution")

    c_o = 1.0
    for i in range(p):
        c_o *= float(shift.transitions[word[i], word[(i + 1) % p]])
    if c_o >= 1.0 - 1e-12:
        raise DegenerateLinearTermError(
            f"orbit weight c_o = {c_o} leaves no room for the hole to shrink"
        )

    order = p * ((ceiling.order + p - 1) // p)
    padded = refine_cylinder_function(shift, ceiling, order)
    system = build_suspension(shift, padded)

    reps = (p + order - 1) // p + 1
    extended = word * reps
    orbit_height = _prefix_height(system, extended[: p + order])
    t_word = extended[:order]
    closed, cofactor = _closed_and_cofactor(system, t_word, t_word)
    return PeriodicOrbitFamily(
        system=system,
        base_word=word,
        period=p,
        orbit_height=orbit_height,
        orbit_weight=c_o,
        word_measure=cylinder_measure(shift, word),
        t_word=t_word,
        nu_min=order // p + 1,
        deflated=deflate_at_one(closed),
        cofactor=cofactor,
    )


def family_hole_word(family: PeriodicOrbitFamily, nu: int) -> Word:
    """The hole word A_nu = base^nu."""
    if nu < 1:
        raise ValueError(f"nu must be >= 1, got {nu}")
    return family.base_word * nu


def family_hole_measure(family: PeriodicOrbitFamily, nu: int) -> float:
    """mu_nu = mu([A_nu]) = (mu_w / c_o) * c_o^nu."""
    return cylinder_measure(family.system.base, family_hole_word(family, nu))


def _repeats(family: PeriodicOrbitFamily, nu: int) -> int:
    """s = nu - n/p, the terms of the hole's correlation polynomial;
    ValueError below nu_min."""
    s = nu - family.order_over_period
    if s < 1:
        raise ValueError(
            f"nu = {nu} is below nu_min = {family.nu_min}; the hole is shorter than the order"
        )
    return s


def _family_open_inverse(family: PeriodicOrbitFamily, s: int, mu_nu: float) -> Polynomial:
    """Open inverse zeta of the hole A_nu, assembled from cached family
    pieces, at s = nu - n/p and with mu_nu given.

    Uses the factorization with the family's explicit correlation polynomial
    sum_{k<s} (c_o z^o)^k instead of rebuilding matrices of dimension growing
    with nu.
    """
    o = family.orbit_height
    corr = [0.0] * (o * (s - 1) + 1)
    for k in range(s):
        corr[o * k] = family.orbit_weight ** k
    alpha = mu_nu / family._mu_t
    return _open_determinant(
        family._closed, Polynomial._trimmed(tuple(corr)), family.cofactor, alpha, o * s
    )


# ===========================================================================
# Expansion coefficients
# ===========================================================================

@dataclass(frozen=True)
class ExpansionCoefficients:
    """Expansion z_nu = 1 + sum_i s_i mu_nu^i on the normalized lattice.

    ``s_normalized`` are the recursion's coefficients; ``closed_normalized``
    holds the closed-form (s_1, s_2) for cross-checking. Flow-unit values
    divide s_i by lambda^i (the expansion of exp(lambda * rate) pulls one
    lattice factor per power of the hole measure).
    """

    nu: int
    order: int
    s_normalized: tuple[float, ...]
    closed_normalized: tuple[float, float]


def _truncated_product(a: list[float], b: list[float], terms: int) -> list[float]:
    out = [0.0] * terms
    for i, x in enumerate(a[:terms]):
        if x == 0.0:
            continue
        for j, y in enumerate(b[: terms - i]):
            out[i + j] += x * y
    return out


def _root_equation_coefficient(
    a: tuple[float, ...], b: tuple[float, ...], s: list[float], j: int
) -> float:
    """Coefficient of mu^j in sum_l a_l delta^l + mu sum_l b_l delta^l, where
    delta(mu) = sum_i s_i mu^i (j >= 1).

    The powers delta^l are truncated past mu^j, and the terms are added in
    ascending l, a_l delta^l before mu b_l delta^l. A term of delta^l with
    l > j has no mu^j part: its products there are exact zeros, which leave
    a sum that starts at +0.0 unchanged, so the series to any more terms has
    this coefficient too.
    """
    delta = [0.0] + s
    delta += [0.0] * (j + 1 - len(delta))
    value = 0.0
    power = [1.0] + [0.0] * j  # delta^l, starting at l = 0
    for l in range(j + 1):
        if l:
            power = _truncated_product(power, delta, j + 1)
        if 1 <= l < len(a):
            value += a[l] * power[j]
        if l < len(b):
            value += b[l] * power[j - 1]
    return value


def _times_one_minus_z(series: tuple[float, ...]) -> tuple[float, ...]:
    """Taylor series at z = 1 of (1 - z) f from the series of f.

    Since 1 - z = -(z - 1), this shifts the series one place and negates it,
    so the zero at z = 1 is exact. Expanding the product polynomial instead
    leaves a rounding residue at z = 1 that feeds a_1 and b_0.
    """
    return (0.0,) + tuple(-c for c in series)


def expansion_coefficients(
    family: PeriodicOrbitFamily, nu: int, order: int
) -> ExpansionCoefficients:
    """First ``order`` expansion coefficients s_1..s_k at the given nu.

    Solves g1(1 + delta) + mu_nu * g2(1 + delta) = 0 order by order in mu_nu,
    where g1 = (1-z)G/(1 - c_o z^o) is the nu-independent part and g2 carries
    the cofactor and the hole's geometric correlation tail. The linear
    coefficient a_1 = g1'(1) must not vanish (DegenerateLinearTermError).
    """
    if order < 1:
        raise ValueError(f"order must be >= 1, got {order}")
    s_count = nu - family.order_over_period
    if s_count < 1:
        raise ValueError(f"nu = {nu} is below nu_min = {family.nu_min}")
    k0 = family.orbit_height * s_count
    if order < _TAYLOR_TERMS:
        den_series, a = family._den_series, family._a_series[: order + 1]
    else:
        den_series = family._den.taylor_at_one(order + 1)
        a = _series_quotient(
            _times_one_minus_z(family.deflated.taylor_at_one(order)), den_series, order
        )
    if abs(a[1]) < 1e-12:
        raise DegenerateLinearTermError(f"linear coefficient {a[1]:.3e} vanishes")

    b_order = order - 1
    g2_num = [
        h - t
        for h, t in zip(
            _shifted_taylor(family._head.coefficients, k0, b_order + 1),
            _times_one_minus_z(_shifted_taylor(family._tail.coefficients, k0, b_order)),
        )
    ]
    b = _series_quotient(g2_num, den_series, b_order)

    s_values = [0.0] * order
    for j in range(1, order + 1):
        # With s_j still zero the mu^j coefficient misses exactly a_1 * s_j.
        s_values[j - 1] = -_root_equation_coefficient(a, b, s_values, j) / a[1]

    s_normalized = tuple(s_values)
    closed = _closed_forms(family, k0)
    return ExpansionCoefficients(
        nu=nu,
        order=order,
        s_normalized=s_normalized,
        closed_normalized=closed,
    )


def _closed_forms(family: PeriodicOrbitFamily, k0: int) -> tuple[float, float]:
    """Closed-form (s_1, s_2) on the normalized lattice: s_2 = s_1^2 (k0 -
    G'(1)/G(1) - c_o o/(1 - c_o) + C'(1)/C(1) + mass c_o^{1 - n/p}/(mu_w (1 -
    c_o))), summed left to right."""
    g_prime, g_one, orbit_term, c_prime, c_one, mass_term = family._bracket
    s1 = (1.0 - family.orbit_weight) / family.system.mass_normalized
    bracket = k0 - g_prime / g_one - orbit_term + c_prime / c_one + mass_term
    return s1, s1 * s1 * bracket


# ===========================================================================
# Verification sweeps
# ===========================================================================

@dataclass(frozen=True)
class AsymptoticsRow:
    """One nu of a family sweep, all on the normalized lattice."""

    nu: int
    mu_nu: float
    z_nu: float
    s1: float
    s2: float
    partial_sum: float
    residual_over_mu_k: float


def verify_expansion(
    family: PeriodicOrbitFamily, nus: "list[int] | tuple[int, ...]", order: int
) -> list[AsymptoticsRow]:
    """Locate z_nu and compare it against the order-``order`` partial sum.

    z_nu is the smallest root >= 1 of the family's open inverse zeta, found
    by ``smallest_root_geq_one`` as for the family's escape rates.
    """
    rows = []
    for nu in nus:
        s_norm = expansion_coefficients(family, nu, max(order, 2)).s_normalized
        mu_nu = family_hole_measure(family, nu)
        root = smallest_root_geq_one(_family_open_inverse(family, _repeats(family, nu), mu_nu))
        partial = 1.0 + sum(s_norm[i] * mu_nu ** (i + 1) for i in range(order))
        rows.append(
            AsymptoticsRow(
                nu=nu,
                mu_nu=mu_nu,
                z_nu=root,
                s1=s_norm[0],
                s2=s_norm[1],
                partial_sum=partial,
                residual_over_mu_k=abs(root - partial) / mu_nu ** order,
            )
        )
    return rows


@dataclass(frozen=True)
class LocalRateRow:
    """Escape rate over hole measure for one nu, against its limits.

    ``ratio_ceiling`` uses the family's own ceiling (flow units),
    ``ratio_unit`` the constant-1 ceiling; their limits are (1 - c_o)/mu(phi)
    and (1 - c_o).
    """

    nu: int
    mu_nu: float
    ratio_ceiling: float
    ratio_unit: float


@dataclass(frozen=True)
class LocalRateReport:
    rows: list[LocalRateRow]
    limit_ceiling: float
    limit_unit: float


def _family_rate(family: PeriodicOrbitFamily, nu: int, mu_nu: float) -> float:
    """Escape rate of the hole A_nu of measure ``mu_nu`` in flow units, via
    the family zeta root."""
    root = smallest_root_geq_one(_family_open_inverse(family, _repeats(family, nu), mu_nu))
    return float(np.log(root)) / family.system.lattice_scale


def local_rate_sweep(
    shift: MarkovShift,
    ceiling: CylinderFunction,
    base_word: Word,
    nus: "list[int] | tuple[int, ...]",
) -> LocalRateReport:
    """Escape rate over hole measure along the family, for the given ceiling
    and for the unit ceiling, with the respective local-rate limits."""
    fam_ceiling = build_family(shift, ceiling, base_word)
    fam_unit = build_family(shift, constant_function(shift, 1.0), base_word)
    rows = []
    for nu in nus:
        # Both families sit on the same shift and word, so mu_nu is theirs.
        mu_nu = family_hole_measure(fam_ceiling, nu)
        rows.append(
            LocalRateRow(
                nu=nu,
                mu_nu=mu_nu,
                ratio_ceiling=_family_rate(fam_ceiling, nu, mu_nu) / mu_nu,
                ratio_unit=_family_rate(fam_unit, nu, mu_nu) / mu_nu,
            )
        )
    return LocalRateReport(
        rows=rows,
        limit_ceiling=(1.0 - fam_ceiling.orbit_weight) / fam_ceiling.system.total_mass,
        limit_unit=1.0 - fam_unit.orbit_weight,
    )


@dataclass(frozen=True)
class SecondOrderRow:
    nu: int
    ratio: float


@dataclass(frozen=True)
class SecondOrderReport:
    rows: list[SecondOrderRow]
    limit: float


def second_order_check(
    family: PeriodicOrbitFamily, nus: "list[int] | tuple[int, ...]"
) -> SecondOrderReport:
    """(rate - s_1 mu_nu) / (nu mu_nu^2) against its limit s_1^2 * S_p(phi).

    Rates and s_1 are in flow units; the period sum S_p(phi) is
    lambda * orbit_height.
    """
    lam = family.system.lattice_scale
    s1_ext = (1.0 - family.orbit_weight) / family.system.total_mass
    rows = []
    for nu in nus:
        mu_nu = family_hole_measure(family, nu)
        rate = _family_rate(family, nu, mu_nu)
        rows.append(
            SecondOrderRow(nu=nu, ratio=(rate - s1_ext * mu_nu) / (nu * mu_nu ** 2))
        )
    return SecondOrderReport(
        rows=rows, limit=s1_ext ** 2 * lam * family.orbit_height
    )
