"""Acceptance suite: one check per criterion, one PASS/FAIL line each.

Run with ``pytest tests/test_acceptance.py -s`` to see every line as it
is produced (pytest otherwise shows captured output only on failure).
"""

import json
import math
import time

import numpy as np

from blockfade import (
    ChannelSpec,
    SimConfig,
    bound_columns,
    discretize_rayleigh,
    link_terms,
    make_distribution,
    simulate_information_density,
    simulate_st_controller,
    sweep_dispersion_stats,
    water_fill,
)
from blockfade.cli import main, preset_fading
from blockfade.specfun import std_normal_cdf, std_normal_inv_cdf
from oracles import (bisect_quantile, oracle_channel_quantities, pv_constant_power_dispersion,
                     rayleigh_waterfill_limit)

# Capacity of the paper-rayleigh preset at 5 dB, to five digits.
CAPACITY_ANCHOR = 0.74230
PRESET_BUDGET = 10.0 ** 0.5  # 5 dB


def _report(num: int, name: str, ok: bool, detail: str = "") -> None:
    line = f"[criterion {num}] {'PASS' if ok else 'FAIL'} {name}"
    if detail:
        line += f" — {detail}"
    print(line)


def preset_spec() -> ChannelSpec:
    return ChannelSpec(noise_var=1.0, n_c=1, fading=discretize_rayleigh(0.1, 4.1, 10, 1.0))


def two_state_spec() -> ChannelSpec:
    return ChannelSpec(noise_var=1.0, n_c=1, fading=make_distribution([1.0, 2.0], [0.5, 0.5]))


def readme_preset_grid() -> tuple[list[float], list[float]]:
    """The paper-rayleigh preset as the README words it, built by hand.

    Ten gains 0.1 + i*4/9; P(H >= x) = exp(-x^2/2) for the unit-scale
    Rayleigh amplitude; each gain but the last carries the mass up to the
    next one, with the below-grid mass folded into the first state and the
    tail at or above 4.1 into the last.
    """
    gains = [0.1 + i * 4.0 / 9.0 for i in range(10)]
    tail = [math.exp(-g * g / 2.0) for g in gains]
    probs = [1.0 - tail[1]] + [tail[i] - tail[i + 1] for i in range(1, 9)] + [tail[9]]
    return gains, probs


def test_criterion_1_capacity_anchor():
    gains, probs = readme_preset_grid()
    start = time.perf_counter()
    spec = preset_spec()
    lib_capacity = float(sweep_dispersion_stats(spec, [PRESET_BUDGET])["capacity"][0])
    elapsed = time.perf_counter() - start

    oracle_capacity = oracle_channel_quantities(gains, probs, 1.0, 1, PRESET_BUDGET)["capacity"]
    grid_err = max(abs(a - b) for dist in (preset_fading(), spec.fading)
                   for a, b in zip(dist.gains + dist.probs, (*gains, *probs), strict=True))
    ok = (grid_err <= 1e-15
          and abs(lib_capacity - oracle_capacity) <= 1e-10
          and abs(oracle_capacity - CAPACITY_ANCHOR) <= 5e-6
          and elapsed < 1.0)
    _report(1, f"capacity anchor {CAPACITY_ANCHOR:.5f} (oracle-derived)", ok,
            f"library {lib_capacity:.10f}, oracle {oracle_capacity:.10f}, "
            f"anchor {CAPACITY_ANCHOR:.5f}, grid error {grid_err:.1e}, {elapsed:.2f}s")
    assert grid_err <= 1e-15
    assert abs(lib_capacity - oracle_capacity) <= 1e-10
    assert abs(oracle_capacity - CAPACITY_ANCHOR) <= 5e-6
    assert elapsed < 1.0


def test_criterion_2_waterfilling_exactness():
    start = time.perf_counter()
    rng = np.random.default_rng(20240517)
    worst_budget = worst_kkt = worst_identity = worst_inequality = 0.0
    for _ in range(1000):
        k = int(rng.integers(2, 21))
        gains = np.cumsum(rng.uniform(0.02, 0.8, size=k)) + rng.uniform(0.05, 0.5)
        probs = rng.uniform(0.05, 1.0, size=k)
        probs /= probs.sum()
        noise_var = float(rng.uniform(0.2, 4.0))
        budget = float(rng.uniform(0.05, 30.0))
        spec = ChannelSpec(noise_var=noise_var, n_c=1,
                           fading=make_distribution(gains.tolist(), probs.tolist()))
        levels, rows = water_fill(spec, [budget])
        level, powers = float(levels[0]), rows[0].tolist()

        spent = math.fsum(q * p for q, p in zip(spec.fading.probs, powers))
        worst_budget = max(worst_budget, abs(spent - budget) / max(1.0, budget))
        for g, p in zip(spec.fading.gains, powers):
            floor = noise_var / (g * g)
            if p > 0.0:
                worst_kkt = max(worst_kkt, abs(p + floor - level) / max(1.0, level))
            g2 = g * g * p
            worst_identity = max(worst_identity, abs(link_terms(g2, noise_var)[1] - p / level))
            shortfall = level * g * g - (noise_var + g2)
            worst_inequality = max(worst_inequality, shortfall / max(1.0, level * g * g))
    elapsed = time.perf_counter() - start

    ok = (worst_budget <= 1e-9 and worst_kkt <= 1e-12 and worst_identity <= 1e-12
          and worst_inequality <= 1e-12 and elapsed < 5.0)
    _report(2, "water-filling exactness on 1000 random channels", ok,
            f"budget {worst_budget:.2e}, kkt {worst_kkt:.2e}, identity {worst_identity:.2e}, "
            f"inequality slack {worst_inequality:.2e}, {elapsed:.2f}s")
    assert worst_budget <= 1e-9
    assert worst_kkt <= 1e-12
    assert worst_identity <= 1e-12
    assert worst_inequality <= 1e-12
    assert elapsed < 5.0


def test_criterion_3_two_state_oracle_equivalence():
    spec = two_state_spec()
    stats = sweep_dispersion_stats(spec, [1.0])
    lib = {
        "level": float(stats["water_level"][0]),
        "capacity": float(stats["capacity"][0]),
        "v_bf": float(stats["v_bf"][0]),
        "v_bf_prime": float(stats["v_bf_prime"][0]),
    }
    oracle = oracle_channel_quantities([1.0, 2.0], [0.5, 0.5], 1.0, 1, 1.0)
    anchors = {"level": 1.625, "capacity": 0.58933, "v_bf": 0.5461, "v_bf_prime": 0.4529}
    ok = True
    for key, anchor in anchors.items():
        digits = 5e-6 if key == "capacity" else 5e-5 if key != "level" else 5e-4
        ok = ok and abs(lib[key] - oracle[key]) <= 1e-10
        ok = ok and abs(oracle[key] - anchor) <= digits
    _report(3, "two-state hand-solved oracle equivalence", ok,
            f"level {lib['level']:.6f}, capacity {lib['capacity']:.5f}, "
            f"v_bf {lib['v_bf']:.5f}, v_bf' {lib['v_bf_prime']:.5f}")
    for key, anchor in anchors.items():
        assert abs(lib[key] - oracle[key]) <= 1e-10, key
    assert abs(oracle["level"] - 1.625) <= 1e-9
    assert abs(oracle["capacity"] - 0.58933) <= 5e-6
    assert abs(oracle["v_bf"] - 0.5461) <= 5e-5
    assert abs(oracle["v_bf_prime"] - 0.4529) <= 5e-5


def expected_rate_offsets(n: int, epsilon: float, beta: float) -> tuple[float, ...]:
    """Each bound's rate minus capacity on the preset, from the oracle.

    The normal-approximation terms at codeword length n (n_c = 1, ten
    states), built from the oracle's V, V' and water level and the mpmath
    quantile; order lb_st, lb_lt, ub_st, ub_lt.
    """
    gains, probs = readme_preset_grid()
    oracle = oracle_channel_quantities(gains, probs, 1.0, 1, PRESET_BUDGET)
    quantile = bisect_quantile(epsilon)
    lb_lt = (math.sqrt(oracle["v_bf"] / n) * quantile + 0.5 * math.log(n) / n
             - n ** ((1.0 - beta) / 2.0) / n)
    ub_st = math.sqrt(oracle["v_bf_prime"] / n) * quantile + 0.5 * 10 * math.log(n) / n
    return (lb_lt - math.sqrt(1.0 / (2.0 * n)), lb_lt,
            ub_st, ub_st + 1.0 / (2.0 * oracle["level"] * math.sqrt(n)))


def test_criterion_4_bound_ordering_and_convergence():
    # Each n = 4000 rate must sit at CAPACITY_ANCHOR plus its own oracle
    # back-off, within the anchor's rounding (5e-6, as in criterion 1)
    # plus 1e-9 for the arithmetic.
    offsets = expected_rate_offsets(4000, 0.01, 0.01)
    start = time.perf_counter()
    spec = preset_spec()

    def rates(lengths):
        # per n, the rates lb_st, lb_lt, ub_st, ub_lt
        bp = bound_columns(spec, [PRESET_BUDGET], lengths, 0.01)
        return list(zip(*(bp[name].tolist() for name in
                          ("rate_lb_st", "rate_lb_lt", "rate_ub_st", "rate_ub_lt"))))

    grid = sorted({int(round(v)) for v in np.geomspace(1_000, 1_000_000, 25)})
    ordering_ok = all(lb_st < lb_lt < ub_st < ub_lt for lb_st, lb_lt, ub_st, ub_lt in rates(grid))

    at_4000, = rates([4000])
    worst = max(abs(r - (CAPACITY_ANCHOR + off)) for r, off in zip(at_4000, offsets))
    window_ok = worst <= 5e-6 + 1e-9
    gap_4000 = at_4000[3] - at_4000[0]
    at_1000, = rates([1000])
    gap_1000 = at_1000[3] - at_1000[0]
    gap_ok = gap_4000 < gap_1000
    elapsed = time.perf_counter() - start

    ok = ordering_ok and window_ok and gap_ok and elapsed < 1.0
    _report(4, "bound ordering and figure-shape convergence", ok,
            f"max |rate - (anchor + oracle offset)|@4000 = {worst:.2e}, "
            f"gap 1000 {gap_1000:.4f} -> 4000 {gap_4000:.4f}, {elapsed:.2f}s")
    assert ordering_ok
    assert window_ok
    assert gap_ok
    assert elapsed < 1.0


def test_criterion_5_quantile_accuracy():
    grid = np.geomspace(1e-6, 1.0 - 1e-6, 10_000)
    worst = max(abs(std_normal_cdf(std_normal_inv_cdf(float(p))) - float(p)) for p in grid)
    anchor_err = abs(std_normal_inv_cdf(0.01) - (-2.3263479))
    ok = worst <= 1e-9 and anchor_err <= 1e-6
    _report(5, "quantile round-trip accuracy", ok,
            f"worst round-trip {worst:.2e}, anchor error {anchor_err:.2e}")
    assert worst <= 1e-9
    assert anchor_err <= 1e-6


def test_criterion_6_controller_violation_bound():
    start = time.perf_counter()
    cfg = SimConfig(spec=two_state_spec(), budget=1.0, blocks=1000, trials=100_000, seed=42)
    report = simulate_st_controller(cfg, alpha=0.1)
    slack = 3.0 * math.sqrt(report["empirical_prob"] * (1.0 - report["empirical_prob"])
                            / report["trials"])
    bound_ok = report["empirical_prob"] <= report["hoeffding_bound"] + slack

    single = ChannelSpec(noise_var=1.0, n_c=1, fading=make_distribution([1.0], [1.0]))
    single_cfg = SimConfig(spec=single, budget=1.0, blocks=1000, trials=10_000, seed=42)
    single_report = simulate_st_controller(single_cfg, alpha=0.1)
    single_ok = single_report["empirical_prob"] == 0.0
    elapsed = time.perf_counter() - start

    ok = bound_ok and single_ok and elapsed < 60.0
    _report(6, "controller violations within concentration bound", ok,
            f"empirical {report['empirical_prob']:.2e} <= bound {report['hoeffding_bound']:.4f}, "
            f"single-state violations {single_report['empirical_prob']}, {elapsed:.1f}s")
    assert bound_ok
    assert single_ok
    assert elapsed < 60.0


def test_criterion_7_information_density_clt():
    start = time.perf_counter()
    cfg = SimConfig(spec=two_state_spec(), budget=1.0, blocks=10_000, trials=10_000, seed=42)
    stats = simulate_information_density(cfg)
    n = cfg.blocks
    se = math.sqrt(stats["analytic_var"] / (cfg.trials * n))
    mean_ok = abs(stats["empirical_mean_per_use"] - 0.5893274981708231) <= 3.0 * se
    var_ok = abs(stats["empirical_var_per_use"] - 0.51952) <= 0.02 * 0.51952
    ks_ok = stats["ks_distance"] <= 0.02
    elapsed = time.perf_counter() - start

    ok = mean_ok and var_ok and ks_ok and elapsed < 120.0
    _report(7, "information-density moments and normality", ok,
            f"mean {stats['empirical_mean_per_use']:.6f} (target 0.589327, 3se {3 * se:.1e}), "
            f"var {stats['empirical_var_per_use']:.5f} (target 0.51952 +/- 2%), "
            f"ks {stats['ks_distance']:.4f}, {elapsed:.1f}s")
    assert mean_ok
    assert var_ok
    assert ks_ok
    assert elapsed < 120.0


def test_criterion_8_determinism(tmp_path):
    cfg_path = tmp_path / "verify.json"
    cfg_path.write_text(json.dumps({
        "mc": {"seed": 7, "alpha": 0.1,
               "controller": {"blocks": 200, "trials": 2000},
               "density": {"blocks": 400, "trials": 500}},
    }))
    verify_outputs = []
    verify_codes = []
    for name in ("v1.json", "v2.json"):
        out = tmp_path / name
        verify_codes.append(main(["verify", "--config", str(cfg_path), "--out", str(out)]))
        verify_outputs.append(out.read_bytes())

    sweep_outputs = []
    for name in ("s1.csv", "s2.csv"):
        out = tmp_path / name
        assert main(["rate-vs-blocklength", "--points", "8", "--out", str(out)]) == 0
        sweep_outputs.append(out.read_bytes())

    verify_ok = verify_outputs[0] == verify_outputs[1] and verify_codes[0] == verify_codes[1]
    sweep_ok = sweep_outputs[0] == sweep_outputs[1]
    ok = verify_ok and sweep_ok
    _report(8, "byte-identical repeated runs", ok,
            f"verify bytes equal: {verify_ok}, sweep bytes equal: {sweep_ok}")
    assert verify_ok
    assert sweep_ok


def test_criterion_9_constant_power_dispersion_anchor():
    # Polyanskiy & Verdu (ISIT 2011): with CSI at the receiver only, the
    # dispersion is Var C(gamma) + (1 - E^2[1/(1 + gamma)])/2, here with
    # n_c * Var C for n_c uses per block. The library composes nocsit_v as
    # E[V] + n_c*Var C + Var L/2 instead, so this is the one check of the
    # Var L/2 term that does not reuse the library's own formula.
    gains, probs = readme_preset_grid()
    anchors = {1: 0.62764434389249, 3: 1.013388640302669}
    lib, oracle = {}, {}
    for n_c in anchors:
        spec = ChannelSpec(noise_var=1.0, n_c=n_c, fading=preset_fading())
        lib[n_c] = float(sweep_dispersion_stats(spec, [PRESET_BUDGET])["nocsit_v"][0])
        oracle[n_c] = pv_constant_power_dispersion(gains, probs, 1.0, PRESET_BUDGET, n_c)
    worst = max(abs(lib[n_c] - oracle[n_c]) / oracle[n_c] for n_c in anchors)
    anchor_err = max(abs(oracle[n_c] - anchor) for n_c, anchor in anchors.items())
    ok = worst <= 1e-13 and anchor_err <= 5e-15
    _report(9, "constant-power dispersion equals Polyanskiy-Verdu's", ok,
            f"nocsit_v at 5 dB {lib[1]:.14f} (n_c = 1), {lib[3]:.15f} (n_c = 3), "
            f"worst relative gap {worst:.1e}, anchor error {anchor_err:.1e}")
    assert worst <= 1e-13
    assert anchor_err <= 5e-15


def test_criterion_10_rayleigh_capacity_anchor():
    # Goldsmith & Varaiya (1997): water-filling on continuous Rayleigh
    # fading. discretize_rayleigh puts each interval's mass on its lower
    # gain, so the library's capacity sits below the limit and its level
    # above it, each by a constant times the grid step (about 0.277 and
    # 1.23 at 5 dB). The check is that constant, on three grids whose
    # steps differ 67-fold, not one grid's error.
    level, capacity = rayleigh_waterfill_limit(PRESET_BUDGET)
    anchor_err = max(abs(level - 4.4995025), abs(capacity - 0.8640047))
    start = time.perf_counter()
    cap_ratios, level_ratios = [], []
    for count, hi in ((200, 6.0), (2000, 8.0), (20000, 9.0)):
        spec = ChannelSpec(noise_var=1.0, n_c=1, fading=discretize_rayleigh(1e-3, hi, count))
        stats = sweep_dispersion_stats(spec, [PRESET_BUDGET])
        step = (hi - 1e-3) / (count - 1)
        cap_ratios.append((capacity - float(stats["capacity"][0])) / step)
        level_ratios.append((float(stats["water_level"][0]) - level) / step)
    elapsed = time.perf_counter() - start

    def first_order(ratios):
        return min(ratios) > 0.0 and max(ratios) <= 1.01 * min(ratios)

    ok = (anchor_err <= 5e-8 and first_order(cap_ratios) and first_order(level_ratios)
          and elapsed < 1.0)
    _report(10, "Rayleigh water-filling capacity limit (Goldsmith-Varaiya)", ok,
            f"limit C {capacity:.7f}, level {level:.7f}; capacity error / step "
            f"{', '.join(f'{r:.4f}' for r in cap_ratios)}; level error / step "
            f"{', '.join(f'{r:.4f}' for r in level_ratios)}, {elapsed:.2f}s")
    assert anchor_err <= 5e-8
    assert first_order(cap_ratios), cap_ratios
    assert first_order(level_ratios), level_ratios
    assert elapsed < 1.0
