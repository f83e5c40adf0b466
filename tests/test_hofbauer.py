import importlib
import inspect
import pkgutil
import re
from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

import uilkit
from uilkit import hofbauer, kneading
from uilkit.errors import (DomainError, PrecisionExhausted,
                           UnresolvedComparison)
from uilkit.hofbauer import (OrbitTable, PrecriticalTable, cutting_value_gaps,
                             f_apply, f_graph_data, long_branched_evidence,
                             tower_levels, upsilon_index, verify_zzz)
from uilkit.inverse_limit import (BackwardWord, TwoSidedItinerary,
                                  basic_arc_interval, classification_report,
                                  folding_verdict, parse_itinerary,
                                  reluctance_search, tau_data)
from uilkit.kneading import (KneadingPrefix, cutting_data,
                             nonrecurrent_example_nu, nu_from_orbit, nu_from_q,
                             cascade_q, fibonacci_q)
from uilkit.presets import parse_slope
from uilkit.scalars import (C, Scalar, SignRelC, SlopeParam, _SYMBOL,
                            _grid_ends, critical_orbit, sign_rel_c,
                            slope_exact, slope_for_prefix, slope_interval,
                            tent_apply)
from uilkit.subcontinua import classify_chain
from uilkit.verdicts import approx


def test_z0_full_tent():
    s = slope_exact(2)
    table = PrecriticalTable(s, cutting_data(nu_from_orbit(s, 4)))
    assert table.boundary(0).value == table.natural(0).value == Fraction(1, 4)
    assert table.boundary_hat(0).value == Fraction(3, 4)


def test_z0_three_halves():
    s = slope_exact(Fraction(3, 2))
    table = PrecriticalTable(s, cutting_data(nu_from_orbit(s, 40)))
    assert table.natural(0).value == Fraction(1, 3)


def test_kappa3_clamp():
    s = slope_exact(Fraction(6, 5))
    kd = cutting_data(nu_from_orbit(s, 40))
    assert kd.kappa == 3
    table = PrecriticalTable(s, kd)
    z, zhat, z_natural = table.boundary(0), table.boundary_hat(0), \
        table.natural(0)
    # the left boundary is clamped into the core; the hat point stays the
    # natural reflection, so it still maps to c in one step
    assert z.value == OrbitTable(s).value(2).value
    assert zhat.value == 1 - z_natural.value
    assert z_natural.value < z.value
    assert tent_apply(s, zhat).value == Fraction(1, 2)


@pytest.mark.parametrize("s", [Fraction(6, 5), Fraction(9, 5)])
def test_cell_edges_are_read_without_building_pairs(s):
    # boundary and boundary_hat return the convention values themselves:
    # the natural point and its reflection, but c_2 and c_1 at k = -1 and
    # c_2 on the left at k = 0 when kappa = 3
    slope = slope_exact(s)
    kd = cutting_data(nu_from_orbit(slope, 60))
    table = PrecriticalTable(slope, kd)
    orbit = table.orbit
    for k in range(kd.max_k + 1):
        z, zhat = table.boundary(k), table.boundary_hat(k)
        want = orbit.value(2) if k == 0 and kd.kappa == 3 else \
            table.natural(k)
        assert (z.lo, z.hi) == (want.lo, want.hi)
        assert zhat.value == 1 - table.natural(k).value
    assert table.boundary(-1).value == orbit.value(2).value
    assert table.boundary_hat(-1).value == orbit.value(1).value
    clamped = kd.kappa == 3
    assert (table.boundary(0).value == orbit.value(2).value) == clamped
    assert table.boundary_hat(0).value == 1 - table.natural(0).value
    for k in range(2, kd.max_k):
        verify_zzz(slope, k, table)
        upsilon_index(orbit.value(kd.S[k]), table)


def test_cell_of_a_point_straddling_a_deep_boundary_is_unresolved():
    # z_8 of fib:400 has a denominator of 20 174 bits: the comparison's
    # error text printed it in decimal and raised ValueError past the
    # interpreter's 4300-digit limit
    slope = parse_slope("fib:400")
    zp = PrecriticalTable(slope, cutting_data(nu_from_orbit(slope, 400)))
    z8 = zp.natural(8).value
    x = Scalar(z8 - Fraction(1, 10 ** 60), z8 + Fraction(1, 10 ** 60))
    with pytest.raises(UnresolvedComparison, match=r"^cannot order ~\["):
        upsilon_index(x, zp)
    with pytest.raises(UnresolvedComparison, match=r"^cannot order ~\["):
        f_apply(slope, x, zp)


def test_f_apply_rejects_another_slope(fib_slope, fib_kd):
    zp = PrecriticalTable(fib_slope, fib_kd)
    with pytest.raises(DomainError, match="another slope"):
        f_apply(slope_exact(Fraction(9, 5)), zp.orbit.value(3), zp)


def test_precritical_defining_property(fib_slope, fib_kd):
    table = PrecriticalTable(fib_slope, fib_kd)
    prev = None
    for k in range(6):
        z = table.natural(k)
        x = z
        for j in range(1, fib_kd.S[k] + 1):
            x = tent_apply(fib_slope, x)
            hit = x.is_exact and x.value == C
            assert hit == (j == fib_kd.S[k])
        if prev is not None:
            assert prev.value < z.value < C
        prev = z


def test_tower_seed_indices():
    nu = KneadingPrefix("1000101")
    kd = cutting_data(nu)
    levels = tower_levels(kd, None, 7)
    assert (levels[6].n, levels[6].beta_n) == (7, 3)
    assert (levels[0].n, levels[0].beta_n) == (1, 0)   # D_1 = [c_1, c]


def test_tower_cross_check_and_decay(fib_slope, fib_kd):
    levels = tower_levels(fib_kd, fib_slope, 30)
    assert levels[7].length.hi < levels[4].length.hi   # |D_8| < |D_5|
    for lv in levels:
        assert lv.contains_c == (lv.n in fib_kd.S)


def test_tower_depth_zero_is_no_levels_not_the_horizon(fib_slope, fib_kd):
    # only None means "to the horizon"
    assert tower_levels(fib_kd, fib_slope, 0) == []
    assert tower_levels(fib_kd, None, 0) == []
    assert len(tower_levels(fib_kd, None)) == fib_kd.horizon
    with pytest.raises(DomainError):
        tower_levels(fib_kd, fib_slope, -1)
    # no levels is depth 0, which long_branched_evidence refuses
    for levels in (tower_levels(fib_kd, fib_slope, 0),
                   tower_levels(fib_kd, None, 0)):
        with pytest.raises(DomainError,
                           match="^long-branched depth must be >= 1, got 0$"):
            long_branched_evidence(fib_kd, levels)


def test_upsilon_index_conventions(fib_slope, fib_kd):
    zp = PrecriticalTable(fib_slope, fib_kd)
    orbit = zp.orbit
    assert upsilon_index(orbit.value(2), zp) == 0
    assert upsilon_index(orbit.value(1), zp) == 0
    mid = Scalar.exact((zp.boundary(2).value + zp.boundary(3).value) / 2)
    assert upsilon_index(mid, zp) == 3
    with pytest.raises(DomainError):
        upsilon_index(Scalar.exact(C), zp)


def test_upsilon_partition_no_early_hits(fib_slope, fib_kd):
    # on Upsilon_k the first critical visit is exactly at time S_k
    zp = PrecriticalTable(fib_slope, fib_kd)
    for k in range(4):
        lo = zp.boundary(k - 1)
        hi = zp.boundary(k)
        x = Scalar.exact(lo.value + (hi.value - lo.value) * Fraction(3, 7))
        assert upsilon_index(x, zp) == k
        y = x
        for j in range(1, fib_kd.S[k]):
            y = tent_apply(fib_slope, y)
            assert not (y.is_exact and y.value == C)


def test_verify_zzz_boundary_and_interior(fib_slope, fib_kd):
    zp = PrecriticalTable(fib_slope, fib_kd)
    for k in range(0, 7):
        v = verify_zzz(fib_slope, k, zp)
        assert v.is_certified, (k, v)
        if k < 2:
            assert v.witness.get("boundary")


def _inject_first_read(monkeypatch, n, x):
    """The next read of c_n from an OrbitTable gives ``x``, once.

    verify_zzz reads c_{S_k} before any cell edge, so the injected value is
    its c_{S_k}; the edges keep the genuine orbit."""
    value, pending = OrbitTable.value, [x]

    def injected(self, m):
        return pending.pop() if m == n and pending else value(self, m)

    monkeypatch.setattr(OrbitTable, "value", injected)


def test_verify_zzz_unresolved_cell_comparison_is_undetermined(monkeypatch):
    # a seeded search over decimal interval slopes found no c_{S_k}, k >= 2,
    # whose enclosure straddles a cell edge, so one is injected across z_Q
    slope = slope_exact(Fraction(9, 5))
    kd = cutting_data(nu_from_orbit(slope, 80))
    zp = PrecriticalTable(slope, kd)
    k = 4
    q = kd.q_of(k + 1)
    assert verify_zzz(slope, k, zp).is_certified
    z, eps = zp.boundary(q), Fraction(1, 1 << 40)
    _inject_first_read(monkeypatch, kd.S[k],
                       Scalar.interval(z.lo - eps, z.hi + eps))
    v = verify_zzz(slope, k, zp)
    assert v.status == "undetermined"
    assert v.witness == {"k": k, "q": q,
                         "reason": "cell comparison unresolved"}


def test_verify_zzz_value_in_another_cell_is_refuted(monkeypatch):
    # the theorem puts c_{S_k} in Upsilon_{Q(k+1)}; a value in the next
    # cell on the left is refuted
    slope = slope_exact(Fraction(9, 5))
    kd = cutting_data(nu_from_orbit(slope, 80))
    zp = PrecriticalTable(slope, kd)
    k = 4
    q = kd.q_of(k + 1)
    inner = (zp.boundary(q).value + zp.boundary(q + 1).value) / 2
    _inject_first_read(monkeypatch, kd.S[k], Scalar.exact(inner))
    v = verify_zzz(slope, k, zp)
    assert v.is_refuted and v.witness == {"k": k, "q": q}


@pytest.mark.parametrize("name, k", [("9/5", 0), ("9/5", 1), ("sqrt3", 0),
                                     ("sqrt3", 1)])
def test_verify_zzz_boundary_off_the_edge_is_refuted(monkeypatch, name, k):
    # c_{S_0} = c_1 and c_{S_1} = c_2 are the edges themselves, so only an
    # injected value reaches the exact and the enclosure refutations
    slope = parse_slope(name)
    kd = cutting_data(nu_from_orbit(slope, 40))
    zp = PrecriticalTable(slope, kd)
    assert verify_zzz(slope, k, zp).is_positive
    _inject_first_read(monkeypatch, kd.S[k], zp.orbit.value(3))
    v = verify_zzz(slope, k, zp)
    assert v.is_refuted and v.witness == {"k": k, "q": kd.q_of(k + 1),
                                          "boundary": True}


def test_f_orbit_identity(fib_slope, fib_kd):
    zp = PrecriticalTable(fib_slope, fib_kd)
    orbit = zp.orbit
    for k in range(6):
        y, cell = f_apply(fib_slope, orbit.value(fib_kd.S[k]), zp)
        assert cell == fib_kd.q_of(k + 1)
        assert y.value == orbit.value(fib_kd.S[k + 1]).value


def test_f_first_cell_is_plain_tent(fib_slope, fib_kd):
    zp = PrecriticalTable(fib_slope, fib_kd)
    x = Scalar.exact(zp.boundary(0).value / 3 + Fraction(2, 3))  # in (zhat_0, c_1]
    if upsilon_index(x, zp) == 0:
        y, cell = f_apply(fib_slope, x, zp)
        assert cell == 0
        assert y.value == tent_apply(fib_slope, x).value


def test_f_graph_affine_per_cell(fib_slope, fib_kd):
    zp = PrecriticalTable(fib_slope, fib_kd)
    rows = f_graph_data(zp, grid=48, max_cell=4)
    assert rows == sorted(rows, key=lambda r: (r[0], r[4]))
    from collections import defaultdict
    per_cell = defaultdict(list)
    for x_lo, x_hi, f_lo, f_hi, k in rows:
        if x_lo == x_hi and f_lo == f_hi and x_lo < C:
            per_cell[k].append((x_lo, f_lo))
    s = fib_slope.s.value
    for k, pts in per_cell.items():
        pts = pts[:3]
        if len(pts) == 3:
            d1 = (pts[1][1] - pts[0][1]) / (pts[1][0] - pts[0][0])
            d2 = (pts[2][1] - pts[1][1]) / (pts[2][0] - pts[1][0])
            assert abs(d1) == abs(d2) == s ** fib_kd.S[k]


def test_f_graph_data_rejects_a_negative_max_cell():
    # a negative max_cell used to drop the per-cell samples without a word
    s = slope_exact(Fraction(9, 5))
    zp = PrecriticalTable(s, cutting_data(nu_from_orbit(s, 64)))
    for max_cell in (-1, -2):
        with pytest.raises(DomainError, match="max_cell must be >= 0"):
            f_graph_data(zp, grid=4, max_cell=max_cell)
    assert len(f_graph_data(zp, grid=4, max_cell=0)) == 9


# -- refusals, each with its type and text --------------------------------------

@pytest.fixture(scope="module")
def zp_9_5():
    s = slope_exact(Fraction(9, 5))
    return PrecriticalTable(s, cutting_data(nu_from_orbit(s, 24)))


def test_orbit_table_refuses_a_negative_index():
    with pytest.raises(DomainError, match=r"^orbit index must be >= 0$"):
        OrbitTable(slope_exact(Fraction(9, 5))).value(-1)


def test_tower_depth_past_the_kneading_horizon_is_refused(zp_9_5):
    kd = zp_9_5.kd
    for slope in (zp_9_5.slope, None):
        with pytest.raises(DomainError, match=r"^tower depth exceeds the "
                                              r"kneading horizon$"):
            tower_levels(kd, slope, kd.horizon + 1)


def test_natural_is_defined_from_0_to_max_k(zp_9_5):
    k = zp_9_5.max_k
    with pytest.raises(DomainError, match=r"^natural precritical index must "
                                          r"be >= 0$"):
        zp_9_5.natural(-1)
    with pytest.raises(DomainError, match=rf"^z_{k + 1} needs cutting data to "
                                          rf"S_{k + 1} \(have {k}\)$"):
        zp_9_5.natural(k + 1)
    assert zp_9_5.natural(k).is_exact


def test_upsilon_index_refusals(zp_9_5):
    c2, c1 = zp_9_5.orbit.value(2).value, zp_9_5.orbit.value(1).value
    d = Fraction(1, 100)
    # certified outside the core, or overlapping an end and reaching past it
    for x in (Scalar.exact(c2 - d), Scalar.exact(c1 + d),
              Scalar.interval(c2 - d, c2 + d), Scalar.interval(c1 - d, c1 + d)):
        with pytest.raises(DomainError, match=r"^x not certified inside the "
                                              r"core \[c_2, c_1\]$"):
            upsilon_index(x, zp_9_5)
    assert upsilon_index(Scalar.interval(c2, c2 + d), zp_9_5) == 0
    with pytest.raises(UnresolvedComparison, match=r"^x straddles the "
                                                   r"critical point$"):
        upsilon_index(Scalar.interval(C - d, C + d), zp_9_5)
    k = zp_9_5.max_k
    with pytest.raises(PrecisionExhausted, match=rf"^x closer to c than z_{k}; "
                                                 rf"extend the kneading "
                                                 rf"horizon$"):
        upsilon_index(Scalar.exact(C - Fraction(1, 1 << 400)), zp_9_5)


def test_cutting_data_bounds_are_refused(zp_9_5):
    k = zp_9_5.max_k
    with pytest.raises(DomainError, match=rf"^need cutting data to "
                                          rf"S_{k + 1}$"):
        verify_zzz(zp_9_5.slope, k, zp_9_5)
    with pytest.raises(DomainError, match=rf"^cutting data only reaches "
                                          rf"S_{k}$"):
        cutting_value_gaps(zp_9_5, k + 1, Fraction(1, 20))


def test_f_graph_data_stops_at_the_last_cell(zp_9_5):
    # cells past max_k have no boundary; their samples are the grid's
    k = zp_9_5.max_k
    assert f_graph_data(zp_9_5, grid=4, max_cell=k + 3) == \
        f_graph_data(zp_9_5, grid=4, max_cell=k)


@pytest.mark.parametrize("eps", [Fraction(0), Fraction(-1),
                                 Fraction(-1, 256)], ids=str)
def test_a_tolerance_at_or_below_zero_is_refused(zp_9_5, eps):
    # folding_verdict gave evidence and cutting_value_gaps an eps-density
    # verdict at these eps, and classification_report turned the refusal
    # into an undetermined folding verdict
    s, kd = zp_9_5.slope, zp_9_5.kd
    it = parse_itinerary("...100110.01")
    calls = [
        lambda: folding_verdict(it, s, kd.nu, depth=8, eps=eps),
        lambda: cutting_value_gaps(zp_9_5, 4, eps),
        lambda: reluctance_search(s, [Fraction(1, 64), eps], 8, 20),
        lambda: classification_report(it, kd.nu, s, kd, depth=8, eps=eps),
    ]
    for call in calls:
        with pytest.raises(DomainError,
                           match=f"^eps must be > 0, got {re.escape(str(eps))}$"):
            call()


def test_long_branched_dichotomy(fib_kd, nonrec_kd, fib_slope):
    assert long_branched_evidence(nonrec_kd).is_positive
    assert long_branched_evidence(
        fib_kd, tower_levels(fib_kd, fib_slope, 60)).is_refuted


def test_index_form_levels_select_the_kneading_map_rule(fib_kd):
    # the index form carries no lengths, so it is read as no levels, at
    # the depth of the levels given
    no_levels = long_branched_evidence(fib_kd)
    assert no_levels.depth == fib_kd.horizon
    for N in (20, 60):
        index_form = long_branched_evidence(fib_kd, tower_levels(fib_kd, None,
                                                                 N))
        assert index_form == replace(no_levels, depth=N)


def test_long_branched_depth_is_the_number_of_levels():
    # the depth was a separate N, and levels past it were read: 9/5's
    # first 50 levels were stamped depth 50 with the argmin 103 of all 200
    slope = slope_exact(Fraction(9, 5))
    kd = cutting_data(nu_from_orbit(slope, 200))
    levels = tower_levels(kd, slope, 200)
    assert list(inspect.signature(long_branched_evidence).parameters) == \
        ["kd", "levels"]
    first = long_branched_evidence(kd, levels[:50])
    assert first == long_branched_evidence(kd, tower_levels(kd, slope, 50))
    assert (first.depth, first.witness["argmin"],
            first.witness["decreasing"]) == (50, 22, False)
    whole = long_branched_evidence(kd, levels)
    assert (whole.depth, whole.witness["argmin"],
            whole.witness["decreasing"]) == (200, 103, True)


def test_long_branched_cascade_symbolic():
    nu = nu_from_q(cascade_q, 600)     # cutting times 1, 2, 4, ..., 512
    kd = cutting_data(nu)
    verdict = long_branched_evidence(kd)
    assert verdict.is_refuted   # Q -> infinity, levels shrink


def test_cutting_value_gaps(fib_slope, fib_kd):
    zp = PrecriticalTable(fib_slope, fib_kd)
    rep = cutting_value_gaps(zp, 8, Fraction(1, 20))
    assert rep["eps_dense_at_horizon"].is_refuted
    assert rep["max_gap"] > Fraction(1, 20)
    assert set(rep["restricted_q_le_1"]["ks"]) <= set(range(0, 9))
    tiny = cutting_value_gaps(zp, 1, Fraction(1, 20))
    assert len(tiny["rows"]) >= 2


def test_gap_decay_on_appendix_sequence():
    from uilkit.seqgen import generate
    nu, _, _ = generate(200)
    slope = slope_for_prefix(nu.bits[:160], name="appendix")
    kd = cutting_data(nu_from_orbit(slope, 160))
    zp = PrecriticalTable(slope, kd)
    gaps = []
    for K in (4, 8, kd.max_k):
        gaps.append(cutting_value_gaps(zp, K, Fraction(1, 20))["max_gap"])
    assert gaps[2] <= gaps[0]


def test_level_at_cutting_time_spans_to_previous_cut(fib_kd):
    # beta(S_k) = S_{Q(k)}, so D_{S_k} = [c_{S_k}, c_{S_{Q(k)}}]
    for k in range(1, fib_kd.max_k + 1):
        if fib_kd.S[k] <= fib_kd.horizon:
            assert fib_kd.beta_of(fib_kd.S[k]) == fib_kd.S[fib_kd.q_of(k)]


def test_exact_orbit_table_grows_step_by_step(fib_slope, monkeypatch):
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return critical_orbit(*args, **kwargs)

    monkeypatch.setattr(hofbauer, "critical_orbit", counting)
    table = OrbitTable(fib_slope)
    read = [table.value(n) for n in range(301)]
    assert calls == []
    reference = [x for x, _ in critical_orbit(fib_slope, 300)]
    assert read[0].value == C
    for got, want in zip(read[1:], reference):
        assert (got.lo, got.hi, got.precision_bits) == \
            (want.lo, want.hi, want.precision_bits)


@settings(max_examples=60, deadline=None)
@given(q=st.integers(1, 1 << 64), data=st.data(),
       reads=st.lists(st.integers(0, 300), min_size=1, max_size=6))
def test_exact_orbit_table_matches_tent_chain(q, data, reads):
    # the table's integer recurrence against tent_apply from c_0, which
    # built exact tables before; q = 1 is s = 2
    s = Fraction(data.draw(st.integers(q + 1, 2 * q)), q)
    slope = SlopeParam(Scalar(s, s, data.draw(st.sampled_from([64, 256]))))
    table = OrbitTable(slope)
    for n in reads:
        table.value(n)
    N = max(reads)
    bits = max(128, slope.s.precision_bits)
    x, signs = Scalar.exact(C), []
    for n in range(1, N + 1):
        x = tent_apply(slope, x, bits=bits)
        signs.append(sign_rel_c(x))
        got = table.value(n)
        assert got.lo is got.hi
        assert (got.lo.numerator, got.lo.denominator, got.precision_bits) == \
            (x.lo.numerator, x.lo.denominator, x.precision_bits)
        assert (got.hi.numerator, got.hi.denominator) == \
            (x.hi.numerator, x.hi.denominator)
    assert table.word == "".join(map(_SYMBOL.get, signs))


def _counting_orbit(monkeypatch):
    calls = []

    def counting(*args, **kwargs):
        calls.append(args[1])
        return critical_orbit(*args, **kwargs)

    monkeypatch.setattr(hofbauer, "critical_orbit", counting)
    return calls


def _narrow(center, h, bits=128):
    half = Fraction(1, 1 << h)
    return slope_interval(center - half, center + half, bits)


@pytest.mark.parametrize("make, N, cap, builds", [
    (lambda: _narrow(Fraction(9, 5), 300), 200, 4096, [1, 146]),
    (lambda: parse_slope("sqrt3"), 300, 4096, [1, 239]),
    # escalates twice, then stays unresolved at the cap
    (lambda: _narrow(Fraction(19, 10), 140, 64), 220, 4096, [1, 130, 151]),
    # golden returns to c exactly, so its enclosure never resolves c_3
    (lambda: parse_slope("golden"), 60, 512, [1, 3]),
])
def test_interval_orbit_table_grows_step_by_step(monkeypatch, make, N, cap,
                                                 builds):
    slope = make()
    calls = _counting_orbit(monkeypatch)
    table = OrbitTable(slope, cap)
    for n in range(N + 1):
        table.value(n)
    assert calls == builds
    reference = [x for x, _ in critical_orbit(slope, N, prec_cap=cap,
                                              allow_unresolved=True)]
    assert table.value(0).value == C
    for n, want in enumerate(reference, 1):
        got = table.value(n)
        assert (got.lo, got.hi, got.precision_bits) == \
            (want.lo, want.hi, want.precision_bits)


@pytest.mark.parametrize("make", [lambda: _narrow(Fraction(9, 5), 300),
                                  lambda: parse_slope("sqrt3"),
                                  lambda: parse_slope("cbrt6")])
def test_interval_orbit_table_without_escalation_builds_once(monkeypatch,
                                                             make):
    slope = make()
    calls = _counting_orbit(monkeypatch)
    table = OrbitTable(slope)
    for n in (1, 5, 40, 41, 120, 140):
        table.value(n)
    assert calls == [1]
    assert {table.value(n).precision_bits for n in range(1, 141)} == {
        max(128, slope.s.precision_bits)}


@settings(max_examples=25)
@given(p=st.integers(101, 199), h=st.integers(90, 400),
       reads=st.lists(st.integers(1, 40), min_size=1, max_size=8))
def test_interval_orbit_table_matches_critical_orbit(p, h, reads):
    slope = _narrow(Fraction(p, 100), h)
    table = OrbitTable(slope)
    n = 0
    for step in reads:
        n += step
        table.value(n)
    reference = critical_orbit(slope, n, allow_unresolved=True)
    for k, (want, _) in enumerate(reference, 1):
        got = table.value(k)
        assert (got.lo, got.hi, got.precision_bits) == \
            (want.lo, want.hi, want.precision_bits)


@pytest.mark.parametrize("make", [lambda: slope_exact(Fraction(9, 5)),
                                  lambda: parse_slope("fib:150"),
                                  lambda: parse_slope("sqrt3"),
                                  lambda: _narrow(Fraction(19, 10), 140, 64)])
def test_grid_ends_memo_matches_direct_rounding(make):
    table = OrbitTable(make())
    for bits in (64, 84, 64, 300):
        for n in (0, 5, 3, 120, 5, 200, 120):
            assert table.grid_ends(n, bits) == \
                _grid_ends(table.value(n), bits), (n, bits)


def test_grid_ends_memo_is_cleared_by_a_rebuild():
    # c_146 of this slope is unresolved at 128 bits, so reading it rebuilds
    # the table at 256 bits after the memo holds the 128-bit values' ends
    table = OrbitTable(_narrow(Fraction(9, 5), 300))
    ns = range(1, 141)
    before = [table.grid_ends(n, 200) for n in ns]
    assert table.value(140).precision_bits == 128
    table.value(146)
    assert table.value(140).precision_bits == 256
    after = [table.grid_ends(n, 200) for n in ns]
    assert after == [_grid_ends(table.value(n), 200) for n in ns]
    assert after != before


def test_prec_cap_below_start_precision_is_rejected():
    sqrt3 = parse_slope("sqrt3")                      # starts at 192 bits
    for cap in (1, -5, 191):
        with pytest.raises(DomainError):
            critical_orbit(sqrt3, 100, prec_cap=cap)
        with pytest.raises(DomainError):
            OrbitTable(sqrt3, prec_cap=cap)
    orbit = critical_orbit(sqrt3, 100, prec_cap=192)
    assert orbit[-1][0].precision_bits == 192
    assert OrbitTable(sqrt3, prec_cap=192).value(100).precision_bits == 192
    with pytest.raises(DomainError):
        critical_orbit(slope_exact(Fraction(9, 5)), 10, prec_cap=127)


def test_table_for_another_slope_is_rejected():
    sqrt3 = parse_slope("sqrt3")
    kd = cutting_data(nu_from_orbit(sqrt3, 100))
    it = parse_itinerary("(1)^inf .1111")
    for foreign in (OrbitTable(parse_slope("cbrt6")),
                    OrbitTable(sqrt3.at(384))):
        calls = [
            lambda: tower_levels(kd, sqrt3, 20, orbit=foreign),
            lambda: PrecriticalTable(sqrt3, kd, orbit=foreign),
            lambda: cutting_value_gaps(
                PrecriticalTable(sqrt3, kd, orbit=foreign), 3,
                Fraction(1, 4)),
            lambda: folding_verdict(it, sqrt3, kd.nu, orbit=foreign),
            lambda: reluctance_search(sqrt3, [Fraction(1, 64)], 8, 20,
                                      orbit=foreign),
            lambda: classification_report(it, kd.nu, sqrt3, kd, depth=8,
                                          orbit=foreign),
        ]
        for call in calls:
            with pytest.raises(DomainError, match="another slope"):
                call()
    # a table is matched by the slope's ends, not by object identity, and
    # its cap holds: c_239 of sqrt3 escalates to 384 bits below the default
    kd = cutting_data(nu_from_orbit(sqrt3, 300))
    capped = tower_levels(kd, sqrt3, 300,
                          orbit=OrbitTable(parse_slope("sqrt3"), 192))
    assert capped[-1].numeric[0].precision_bits == 192
    assert tower_levels(kd, sqrt3, 300)[-1].numeric[0].precision_bits == 384


def test_only_the_orbit_builders_take_a_precision_cap():
    # public names only: the private scalars._start_precision is the cap
    # check that these four share
    found = set()
    for info in pkgutil.iter_modules(uilkit.__path__):
        module = importlib.import_module(f"uilkit.{info.name}")
        for name, obj in vars(module).items():
            if name.startswith("_") or \
                    getattr(obj, "__module__", None) != module.__name__:
                continue
            members = [(name, obj)]
            if inspect.isclass(obj):
                members += [(f"{name}.{attr}", fn)
                            for attr, fn in vars(obj).items()
                            if inspect.isfunction(fn)
                            and not attr.startswith("_")]
            for label, fn in members:
                try:
                    params = inspect.signature(fn).parameters
                except (TypeError, ValueError):
                    continue
                if "prec_cap" in params:
                    found.add(label)
    assert found == {"critical_orbit", "refine", "nu_from_orbit", "OrbitTable"}


# -- integer ends: differential tests against the Fraction code ----------------

def _level_ends_oracle(orbit, kd, ns):
    """level_ends of the Fraction code."""
    lo = hi = None
    for n in ns:
        a, b = orbit.value(n), orbit.value(kd.beta_of(n))
        d_lo, d_hi = min(a.lo, b.lo), max(a.hi, b.hi)
        lo = d_lo if lo is None else max(lo, d_lo)
        hi = d_hi if hi is None else min(hi, d_hi)
    return None if lo is None else (lo, hi)


def _tower_levels_oracle(kd, slope, N):
    """tower_levels of the Fraction code: checked Scalars, Fraction widths."""
    cuts = set(kd.S)
    orbit = OrbitTable(slope)
    orbit.extend(N)
    c1 = orbit.value(1)
    end_a, end_b = Scalar.exact(C), c1
    levels = []
    for n in range(1, N + 1):
        lo_idx = orbit.value(n)
        hi_idx = orbit.value(kd.beta_of(n))
        index_form = Scalar(*_level_ends_oracle(orbit, kd, (n,)),
                            min(lo_idx.precision_bits, hi_idx.precision_bits))
        inductive = Scalar(min(end_a.lo, end_b.lo), max(end_a.hi, end_b.hi),
                           min(end_a.precision_bits, end_b.precision_bits))
        assert not (index_form.lo > inductive.hi
                    or inductive.lo > index_form.hi or (
                        slope.is_exact and (index_form.lo != inductive.lo
                                            or index_form.hi != inductive.hi)))
        length = Scalar(max(Fraction(0), index_form.width() - lo_idx.width()
                            - hi_idx.width()),
                        index_form.width())
        levels.append((n, kd.beta_of(n), n in cuts, index_form, inductive,
                       length))
        if n in cuts:
            end_a, end_b = orbit.value(n + 1) if n < N else \
                tent_apply(slope, lo_idx), c1
        else:
            end_a, end_b = tent_apply(slope, end_a), tent_apply(slope, end_b)
    return levels


def _fields(x):
    return (x.lo.numerator, x.lo.denominator, x.hi.numerator,
            x.hi.denominator, x.precision_bits)


def _assert_tower_matches_oracle(slope, N, ns_seed=0):
    kd = cutting_data(nu_from_orbit(slope, N))
    got = tower_levels(kd, slope, N)
    want = _tower_levels_oracle(kd, slope, N)
    assert len(got) == len(want) == N
    for lv, (n, beta, cut, index_form, inductive, length) in zip(got, want):
        assert (lv.n, lv.beta_n, lv.contains_c) == (n, beta, cut)
        assert [_fields(x) for x in lv.numeric + (lv.length,)] == \
            [_fields(x) for x in (index_form, inductive, length)], n
    orbit = OrbitTable(slope)
    orbit.extend(N)             # a rebuild would change the values read
    ns = list(range(1, N + 1))
    for k in range(len(ns) + 1):
        sub = ns[(ns_seed + k) % N::k + 1]
        got = hofbauer.level_ends(orbit, kd, sub)
        want = _level_ends_oracle(orbit, kd, sub)
        assert (got is None) == (want is None)
        if got is not None:
            assert [(v.numerator, v.denominator) for v in got] == \
                [(v.numerator, v.denominator) for v in want], sub


@st.composite
def _exact_slopes(draw):
    q = draw(st.integers(1, 1 << 64))
    return slope_exact(Fraction(q + draw(st.integers(1, q)), q))


@st.composite
def _dyadic_interval_slopes(draw):
    h = draw(st.integers(64, 2048))
    m = draw(st.integers(1, h - 1))         # so 1 < mid - half < mid + half < 2
    mid = Fraction(draw(st.integers((1 << m) + 1, (1 << (m + 1)) - 1)), 1 << m)
    half = Fraction(1, 1 << h)
    return slope_interval(mid - half, mid + half, precision_bits=h)


@st.composite
def _decimal_interval_slopes(draw):
    k = draw(st.integers(20, 80))
    mid = Fraction(draw(st.integers(10 ** k + 1, 2 * 10 ** k - 1)), 10 ** k)
    half = Fraction(1, 10 ** draw(st.integers(20, k)))
    return slope_interval(max(mid - half, Fraction(10 ** k + 1, 10 ** k)),
                          min(mid + half, Fraction(2)))


@settings(max_examples=150)
@given(slope=st.one_of(_exact_slopes(), _dyadic_interval_slopes(),
                       _decimal_interval_slopes()),
       N=st.integers(1, 40), seed=st.integers(0, 100))
def test_tower_levels_match_fraction_oracle(slope, N, seed):
    try:
        _assert_tower_matches_oracle(slope, N, seed)
    except PrecisionExhausted:
        assume(False)               # the interval cannot certify a sign


def test_tower_length_clamps_at_zero():
    # at n = 27, 28 the ends' enclosures are together wider than the level
    half = Fraction(1, 1 << 23)
    slope = slope_interval(Fraction(8485, 8192) - half,
                           Fraction(8485, 8192) + half, precision_bits=23)
    levels = tower_levels(cutting_data(nu_from_orbit(slope, 28)), slope, 28)
    assert [lv.n for lv in levels if lv.length.lo == 0 < lv.length.hi] == \
        [27, 28]
    _assert_tower_matches_oracle(slope, 28)


@pytest.mark.parametrize("name,N", [("sqrt3", 300), ("cbrt6", 200),
                                    ("9/5", 200)])
def test_tower_levels_match_fraction_oracle_presets(name, N):
    # c_239 of sqrt3 escalates the orbit to 384 bits
    _assert_tower_matches_oracle(parse_slope(name), N)


_Q64 = (1 << 64) - 59


@pytest.mark.parametrize("s, N", [
    (Fraction(9, 5), 1000), (Fraction(7, 4), 400), (Fraction(13, 8), 400),
    (Fraction(2), 300), (Fraction(_Q64 + 0x9E3779B97F4A7C15, _Q64), 200),
], ids=["9/5", "7/4", "13/8", "2", "q64"])
def test_exact_tower_levels_match_fraction_oracle_at_depth(s, N):
    # odd q, even q, q = 1 and a 64-bit q: the integer-pair induction and
    # the gcd-free lengths against the Fraction induction and _diff
    _assert_tower_matches_oracle(slope_exact(s), N)


@pytest.mark.parametrize("s", [Fraction(9, 5), Fraction(13, 8), Fraction(2)])
def test_exact_tower_ending_at_a_cutting_time_matches_oracle(s):
    slope = slope_exact(s)
    S = cutting_data(nu_from_orbit(slope, 200)).S
    N = max(n for n in S if n <= 200)
    assert N in cutting_data(nu_from_orbit(slope, N)).S
    _assert_tower_matches_oracle(slope, N)
    _assert_tower_matches_oracle(slope, N - 1)


def _long_branched_witness_oracle(levels):
    """min_length, argmin and decreasing of the three-min scan."""
    N = len(levels)
    lengths = [(lv.length.hi, lv.n) for lv in levels]
    min_len, argmin = min(lengths)
    half = [l for l, n in lengths if n > N // 2]
    first_half = [l for l, n in lengths if n <= N // 2]
    decreasing = min(half) < min(first_half) if half and first_half else False
    return approx(min_len), argmin, decreasing


def _assert_witness_matches_oracle(kd, levels):
    w = long_branched_evidence(kd, levels).witness
    assert (w["min_length"], w["argmin"], w["decreasing"]) == \
        _long_branched_witness_oracle(levels)


@settings(max_examples=300)
@given(lengths=st.lists(st.sampled_from(
    [Fraction(0), Fraction(1, 1 << 20), Fraction(1, 7), Fraction(1, 21),
     Fraction(1, 3), Fraction(1, 2)]), min_size=1, max_size=12))
def test_long_branched_witness_matches_three_min_scan(lengths):
    # few distinct values, so ties fall within a half and across the halves
    slope = slope_exact(Fraction(9, 5))
    kd = cutting_data(nu_from_orbit(slope, 40))
    levels = [hofbauer.TowerLevel(n, 0, length=Scalar.exact(x))
              for n, x in enumerate(lengths, 1)]
    _assert_witness_matches_oracle(kd, levels)


@pytest.mark.parametrize("make, N", [
    (lambda: slope_exact(Fraction(9, 5)), 1000),
    (lambda: slope_exact(Fraction(13, 8)), 300),
    (lambda: parse_slope("sqrt3"), 200),
], ids=["9/5", "13/8", "sqrt3"])
def test_long_branched_witness_matches_three_min_scan_on_towers(make, N):
    slope = make()
    kd = cutting_data(nu_from_orbit(slope, N))
    levels = tower_levels(kd, slope, N)
    for depth in (1, 2, 3, N // 3, N):
        _assert_witness_matches_oracle(kd, levels[:depth])


@pytest.mark.parametrize("name", ["9/5", "sqrt3", "nonrec41:120", "interval"])
def test_verify_zzz_stays_as_the_kneading_horizon_grows(name):
    """A longer kneading prefix behind the PrecriticalTable adds cutting
    data but changes no verdict it already gave."""
    half = Fraction(1, 10 ** 40)
    slope = slope_interval(Fraction("1.8393") - half,
                           Fraction("1.8393") + half) \
        if name == "interval" else parse_slope(name)
    verdicts = {}
    for horizon in (20, 40, 80, 120):
        kd = cutting_data(nu_from_orbit(slope, horizon))
        zp = PrecriticalTable(slope, kd)
        verdicts[horizon] = [verify_zzz(slope, k, zp).to_json()
                             for k in range(kd.max_k)]
    longest = verdicts[120]
    assert len(longest) >= 8
    for horizon, got in verdicts.items():
        assert got == longest[:len(got)], horizon


# -- the table's sign word against a kneading word -------------------------------

def test_word_of_another_slope_is_rejected():
    sqrt3, cbrt6 = parse_slope("sqrt3"), parse_slope("cbrt6")
    kd = cutting_data(nu_from_orbit(sqrt3, 100))      # nu_6 is 1, cbrt6's 0
    td = tau_data(BackwardWord(kd.nu.bits[:6]), kd.nu)
    chain = (2, 3, 5, 8, 13)
    genuine = basic_arc_interval(td, OrbitTable(sqrt3), kd=kd, mode="core")
    assert (round(float(genuine.lo.lo), 3), round(float(genuine.hi.hi), 3)) \
        == (0.232, 0.311)
    bar = classify_chain(chain, kd.Q, PrecriticalTable(sqrt3, kd))
    assert [round(float(x), 3) for x in bar.bar_enclosure] == [0.402, 0.524]
    word = kd.nu.bits[:8]
    unit = tau_data(BackwardWord(word), kd.nu)
    shared = OrbitTable(cbrt6)
    shared.extend(20)
    cbrt6_kd = cutting_data(nu_from_orbit(cbrt6, 100))
    calls = [
        lambda: basic_arc_interval(td, OrbitTable(cbrt6), kd=kd, mode="core"),
        lambda: basic_arc_interval(unit, shared, word, kd=kd, mode="unit"),
        lambda: classify_chain(chain, kd.Q, PrecriticalTable(cbrt6, kd)),
    ] + [lambda N=N: tower_levels(cbrt6_kd, sqrt3, N) for N in (10, 30, 100)]
    for call in calls:
        with pytest.raises(DomainError, match="disagrees with the orbit "
                                              "table of (cbrt6|sqrt3) at nu_6$"):
            call()


def test_precritical_table_rejects_another_slopes_word():
    # natural(k) reads nu_1 .. nu_{S_k}; cbrt6's word leaves sqrt3's at its
    # cutting time S_4 = 6, and the table holds the whole word to sqrt3's
    # orbit when it is built, whatever its cap
    sqrt3, cbrt6 = parse_slope("sqrt3"), parse_slope("cbrt6")
    kd = cutting_data(nu_from_orbit(cbrt6, 100))
    assert (kd.S[3], kd.S[4]) == (5, 6)
    calls = [lambda: PrecriticalTable(sqrt3, kd),
             lambda: PrecriticalTable(sqrt3, kd, OrbitTable(sqrt3, 512))]
    for call in calls:
        with pytest.raises(DomainError, match="disagrees with the orbit "
                                              "table of sqrt3 at nu_6$"):
            call()


def _word_pairs():
    """Per entry point, a call with the word or cutting data of 3/2 beside
    the slope 9/5 (or the slope 3/2 beside a table of 9/5), the error text
    it must raise, and the same call with 9/5's own inputs."""
    s, t = slope_exact(Fraction(9, 5)), slope_exact(Fraction(3, 2))
    own, foreign = (cutting_data(nu_from_orbit(x, 60)) for x in (s, t))
    it = parse_itinerary("...100110.01")
    zp = PrecriticalTable(s, own)
    word = "disagrees with the orbit table of its slope at nu_3$"

    def each(call):
        return (lambda: call(foreign, t), lambda: call(own, s))
    return {
        "tower_levels": (word, *each(lambda kd, x: tower_levels(kd, s, 20))),
        "PrecriticalTable": (word, *each(
            lambda kd, x: PrecriticalTable(s, kd))),
        "cutting_value_gaps": (word, *each(lambda kd, x: cutting_value_gaps(
            PrecriticalTable(s, kd), 5, Fraction(1, 64)))),
        "folding_verdict": (word, *each(lambda kd, x: folding_verdict(
            it, s, kd.nu, depth=6))),
        "reluctance_search": (word, *each(lambda kd, x: reluctance_search(
            s, [Fraction(1, 64)], 32, 80, kd=kd))),
        "classification_report": (word, *each(
            lambda kd, x: classification_report(it, kd.nu, s, kd, depth=12))),
        "classification_report-kd": (
            "cutting data belong to another kneading word", *each(
                lambda kd, x: classification_report(it, kd.nu, s, own,
                                                    depth=12))),
        "basic_arc_interval": (word, *each(lambda kd, x: basic_arc_interval(
            tau_data(it.backward, kd.nu, 12), OrbitTable(s), kd=kd,
            mode="core"))),
        "classify_chain": (word, *each(lambda kd, x: classify_chain(
            (2, 3, 4), kd.Q, PrecriticalTable(s, kd)))),
        "verify_zzz": ("orbit table built for another slope", *each(
            lambda kd, x: verify_zzz(x, 4, zp))),
        "f_apply": ("orbit table built for another slope", *each(
            lambda kd, x: f_apply(x, zp.orbit.value(own.S[4]), zp))),
    }


@pytest.mark.parametrize("entry", list(_word_pairs()))
def test_entry_point_rejects_another_slopes_word(entry):
    # the word of 3/2 leaves that of 9/5 at nu_3.  Unchecked, it turned
    # cutting_value_gaps and folding_verdict refuted, and beside 9/5's
    # cutting data it refuted classification_report's folding verdict with
    # the arc (3, 1), where 9/5's own word gives evidence and (7, 1)
    text, foreign, own = _word_pairs()[entry]
    with pytest.raises(DomainError, match=text):
        foreign()
    own()


def _spy_sign_kernels(monkeypatch):
    """Record the n of every OrbitTable.extend and every call of the
    certified-word kernel behind nu_from_orbit."""
    extends, words = [], []
    extend, word = OrbitTable.extend, kneading._critical_word

    def spy_extend(self, n):
        extends.append(n)
        return extend(self, n)

    def spy_word(*args):
        words.append(args)
        return word(*args)

    monkeypatch.setattr(OrbitTable, "extend", spy_extend)
    monkeypatch.setattr(kneading, "_critical_word", spy_word)
    return extends, words


@pytest.mark.parametrize("make, N", [
    (lambda: slope_exact(Fraction(9, 5)), 300),
    (lambda: parse_slope("sqrt3"), 300),
    (lambda: parse_slope("cbrt6"), 200),
    (lambda: _narrow(Fraction(9, 5), 300), 140),
], ids=["9/5", "sqrt3", "cbrt6", "interval"])
def test_precritical_table_trusts_its_own_slopes_word(monkeypatch, make, N):
    # nu_from_orbit certified the word for this very slope object, so a
    # walk over every k reads no sign: the orbit is read only to c_2
    slope = make()
    kd = cutting_data(nu_from_orbit(slope, N))
    extends, words = _spy_sign_kernels(monkeypatch)
    table = PrecriticalTable(slope, kd)
    for k in range(-1, table.max_k + 1):
        table.boundary(k)
        table.boundary_hat(k)
    assert table.max_k >= 8
    assert words == [] and max(extends) <= 2


def _entry_point_calls(slope, nu, kd, orbit):
    """One call of each entry point that reads ``nu`` beside ``orbit``, each
    reading the orbit itself no further than c_256."""
    it = TwoSidedItinerary(BackwardWord("100110"), "01",
                           x0=Scalar.exact(Fraction(1, 3)))
    zp = PrecriticalTable(slope, kd, orbit)
    return [
        lambda: tower_levels(kd, slope, 20, orbit=orbit),
        lambda: zp.natural(4),
        lambda: verify_zzz(slope, 4, zp),
        lambda: cutting_value_gaps(zp, 5, Fraction(1, 64)),
        lambda: folding_verdict(it, slope, nu, depth=6, orbit=orbit),
        lambda: reluctance_search(slope, [Fraction(1, 64)], 8, 20, kd=kd,
                                  orbit=orbit),
        lambda: classification_report(it, nu, slope, kd, depth=12,
                                      orbit=orbit),
        lambda: basic_arc_interval(tau_data(it.backward, nu, 12), orbit,
                                   kd=kd, mode="core"),
        lambda: classify_chain((2, 3, 4), kd.Q, zp),
    ]


@pytest.mark.parametrize("make", [lambda: slope_exact(Fraction(9, 5)),
                                  lambda: parse_slope("sqrt3")],
                         ids=["9/5", "sqrt3"])
def test_a_certified_word_reads_no_sign_at_any_entry_point(monkeypatch,
                                                            make):
    # the word is certified for this slope object, so no entry point reads
    # the orbit past what it computes with; an uncertified copy of the same
    # word is held whole to the table, which reads it to nu_300
    slope = make()
    nu = nu_from_orbit(slope, 300)
    kd = cutting_data(nu)
    copy = KneadingPrefix(nu.bits)
    extends, words = _spy_sign_kernels(monkeypatch)
    for call in _entry_point_calls(slope, nu, kd, OrbitTable(slope)):
        del extends[:]
        call()
        assert words == [] and max(extends, default=0) <= 256
    for call in _entry_point_calls(slope, copy, cutting_data(copy),
                                   OrbitTable(slope)):
        call()
    assert words == [] and max(extends) == 300


def test_precritical_table_checks_an_equal_slopes_word(monkeypatch):
    # an interval with sqrt3's ends certifies fewer signs than sqrt3, so a
    # word certified for sqrt3 is held whole to the interval's orbit table
    sqrt3 = parse_slope("sqrt3")
    kd = cutting_data(nu_from_orbit(sqrt3, 100))
    twin = slope_interval(sqrt3.s.lo, sqrt3.s.hi, sqrt3.s.precision_bits,
                          name="sqrt3")
    assert twin.bracket is None and kd.nu.certified_for is sqrt3
    extends, _ = _spy_sign_kernels(monkeypatch)
    table = PrecriticalTable(twin, kd)
    assert extends == [len(kd.nu)]
    assert table.orbit.word == kd.nu.bits
    table.natural(kd.max_k)
    assert extends == [len(kd.nu)]
    foreign = cutting_data(nu_from_orbit(parse_slope("cbrt6"), 100))
    with pytest.raises(DomainError, match="disagrees with the orbit table "
                                          "of sqrt3 at nu_6$"):
        PrecriticalTable(twin, foreign)


def test_precritical_signs_stop_at_the_first_unresolved_sign():
    # golden returns to c exactly: only "10" is certified, and any word
    # that starts so is taken as given past it
    golden = parse_slope("golden")
    kd = cutting_data(nu_from_orbit(slope_exact(Fraction(1618, 1000)), 60))
    table = PrecriticalTable(golden, kd, orbit=OrbitTable(golden, 512))
    zs = [table.natural(k) for k in range(kd.max_k + 1)]
    assert all(z.hi < C for z in zs)


def test_table_word_stops_at_the_first_unresolved_sign():
    # golden returns to c exactly, so c_3 never resolves: a genuine word of
    # any continuation is accepted, one that breaks "10" is not
    table = OrbitTable(parse_slope("golden"), 1024)
    table.extend(40)
    assert table.word == "10"
    for word in ("1", "10", "1001", "1011101"):
        table.check_word(KneadingPrefix(word))
    for word in ("11", "1100110"):
        with pytest.raises(DomainError, match="at nu_[12]$"):
            table.check_word(KneadingPrefix(word))


def _resolved_prefix(orbit):
    signs = [sign for _, sign in orbit] + [SignRelC.UNRESOLVED]
    return "".join("1" if sign is SignRelC.ABOVE else "0"
                   for sign in signs[:signs.index(SignRelC.UNRESOLVED)])


@pytest.mark.parametrize("make, cap", [
    (lambda: slope_exact(Fraction(9, 5)), 4096),
    (lambda: _narrow(Fraction(9, 5), 300), 4096),
    (lambda: parse_slope("sqrt3"), 4096),
    (lambda: _narrow(Fraction(19, 10), 140, 64), 4096),
    (lambda: parse_slope("golden"), 512),
])
@pytest.mark.parametrize("reads", [(220,), (1, 5, 60, 130, 151, 152, 220),
                                   tuple(range(0, 221, 3))])
def test_table_word_is_the_resolved_sign_prefix(make, cap, reads):
    slope = make()
    table = OrbitTable(slope, cap)
    for n in reads:
        table.value(n)
        assert table.word == _resolved_prefix(
            critical_orbit(slope, n, prec_cap=cap, allow_unresolved=True)
            if n else [])


@pytest.mark.parametrize("kd_name, horizon", [("fib", 220), ("nonrec", 180)])
@pytest.mark.parametrize("with_slope", [True, False])
def test_long_branched_verdict_holds_as_n_grows(request, kd_name, horizon,
                                                with_slope):
    """Once decided at some N, the verdict stays for every larger N."""
    kd = request.getfixturevalue(f"{kd_name}_kd")
    slope = request.getfixturevalue(f"{kd_name}_slope") if with_slope else None
    table = OrbitTable(slope) if with_slope else None
    statuses = {}
    for N in range(20, horizon + 1, 20):
        levels = tower_levels(kd, slope, N, orbit=table)
        statuses[N] = long_branched_evidence(kd, levels).status
    decided = [N for N, status in statuses.items() if status != "undetermined"]
    assert decided and all(statuses[N] == statuses[decided[0]]
                           for N in statuses if N >= decided[0])
    expected = {"fib": "refuted", "nonrec": "evidence"}[kd_name]
    first = 40 if (kd_name, with_slope) == ("fib", True) else 20
    assert decided[0] == first and statuses[first] == expected
