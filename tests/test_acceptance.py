"""Shipping checks, one test per release criterion.

Each test prints the measured numbers before asserting so a failing line
carries its evidence.  The default scenario throughout is the bundled
30-bus case split into four regions over eight auxiliary pairs, with the
seed-7 measurement realization from conftest.
"""

from __future__ import annotations

import time

import numpy as np

from conftest import fd_jacobian, line_losses, random_states
from gridest import (
    admm,
    aladin,
    caseio,
    central,
    cli,
    grid,
    measurements,
    partition,
    posterior,
    powerflow,
)


def _first_at_or_below(values, threshold):
    return next((i for i, v in enumerate(values, start=1) if v <= threshold), None)


def test_criterion_01_distributed_matches_central_oracle(part30, mset30, truth30, central30):
    """A fresh default run terminates at the 1e-4 consensus tolerance within
    50 outer iterations in under 30 s, and the collected estimate matches the
    centralized optimum to 1e-5 in the max norm."""
    start = time.perf_counter()
    result = aladin.run_aladin(part30, mset30, truth=truth30)
    elapsed = time.perf_counter() - start
    estimate = partition.restrict_state(part30, result.zs)
    gap = np.abs(estimate - central30.x).max()
    print(
        f"criterion 1: iterations={result.iterations} "
        f"final_violation={result.final_violation:.3e} time={elapsed:.2f}s "
        f"gap_to_central={gap:.3e}"
    )
    assert result.converged and result.iterations <= 50
    assert result.final_violation <= 1e-4
    assert elapsed <= 30.0
    assert gap <= 1e-5, f"distributed vs central gap {gap:.3e} exceeds 1e-5"


def test_criterion_02_consensus_contracts_linearly(aladin30):
    """Over the last (up to five) iteration pairs the consensus violation
    contracts at a median factor of at most 0.9."""
    violations = [rec.consensus_violation for rec in aladin30.history]
    ratios = [b / a for a, b in zip(violations, violations[1:])][-5:]
    median = float(np.median(ratios))
    print(
        f"criterion 2: violations={['%.3e' % v for v in violations]} "
        f"median_ratio={median:.4f}"
    )
    assert len(ratios) >= 1
    assert median <= 0.9


def test_criterion_03_outpaces_admm_at_matched_penalty(part30, mset30, aladin30):
    """With rho = 1e4 on both sides and the same inner solver, the
    Gauss-Newton driver needs strictly fewer iterations to reach consensus
    violation 1e-3 than ADMM, reaches 1e-4 within 50 iterations, and reaches
    1e-4 strictly before ADMM does, if ADMM gets there within its
    200-iteration budget at all.  (ADMM is not required to stay above 1e-4:
    tests/test_admm.py requires the same default run to reach it.)"""
    admm_result = admm.run_admm(part30, mset30)
    gn = [rec.consensus_violation for rec in aladin30.history]
    ad = [rec.consensus_violation for rec in admm_result.history]
    gn_1e3 = _first_at_or_below(gn, 1e-3)
    ad_1e3 = _first_at_or_below(ad, 1e-3)
    gn_1e4 = _first_at_or_below(gn, 1e-4)
    ad_1e4 = _first_at_or_below(ad, 1e-4)
    print(
        f"criterion 3: iterations to 1e-3 gauss-newton={gn_1e3} admm={ad_1e3}; "
        f"to 1e-4 gauss-newton={gn_1e4} admm={ad_1e4} "
        f"(admm used {admm_result.iterations} of {admm.DEFAULT_CONFIG.max_outer} iterations, "
        f"final violation {admm_result.final_violation:.3e})"
    )
    assert gn_1e3 is not None and ad_1e3 is not None and gn_1e3 < ad_1e3
    assert gn_1e4 is not None and gn_1e4 <= 50
    assert ad_1e4 is None or gn_1e4 < ad_1e4, (
        f"ADMM reached 1e-4 at iteration {ad_1e4}, gauss-newton at {gn_1e4}"
    )


def test_criterion_04_communication_formulas_are_exact(aladin30):
    """The closed-form float counts reproduce themselves on randomized
    partitions of every bundled case, and the run-time counters of the
    default run agree with the formula exactly."""
    rng = np.random.default_rng(4)
    checked = 0
    for name in sorted(caseio.BUILTIN_CASES):
        case = caseio.builtin_case(name)
        for _ in range(10):
            n_regions = int(rng.integers(2, 5))
            labels = rng.integers(0, n_regions, case.n_bus)
            labels[:n_regions] = np.arange(n_regions)
            part = partition.partition_grid(
                case, {bus: int(lab) for bus, lab in zip(case.bus_ids, labels)}
            )
            formula = aladin.comm_counts(part)
            pairs = len(part.aux_pairs)
            for region, up, down in zip(
                part.regions, formula.upload_per_region, formula.download_per_region
            ):
                n = region.case.n_bus
                assert up == 16 * n * n + 6 * n + 4 * pairs
                assert down == 4 * pairs + 4 * n
            checked += 1
    formula = aladin30.formula
    for rec in aladin30.history:
        assert rec.upload_floats == formula.upload_total
    # Termination is checked before the consensus step, so the last
    # iteration of a converged run downloads nothing.
    for rec in aladin30.history[:-1]:
        assert rec.download_floats == formula.download_total
    assert aladin30.history[-1].download_floats == 0
    print(
        f"criterion 4: randomized partitions checked={checked} "
        f"default run upload/iter={formula.upload_total} "
        f"download/iter={formula.download_total}"
    )


def test_criterion_05_jacobians_match_finite_differences(case30, part30, mset30):
    """Every analytic Jacobian (network physics, directed line flows,
    weighted region residuals) agrees with central finite differences to
    1e-6 relative error at 50 operating-range random states, within 5 s."""
    start = time.perf_counter()
    model = grid.PowerFlowModel(case30)
    worst = 0.0

    def track(analytic, numeric):
        nonlocal worst
        err = np.abs(numeric - analytic).max() / (1.0 + np.abs(analytic).max())
        worst = max(worst, err)

    k, l, g, b = grid.line_arrays(case30, [(line.from_bus, line.to_bus) for line in case30.lines])
    m = len(k)
    cols = np.stack([4 * k + grid.THETA, 4 * k + grid.V, 4 * l + grid.THETA, 4 * l + grid.V], axis=1)
    for x in random_states(case30.n_bus, 50, seed=5):
        track(model.jacobian(x), fd_jacobian(model.eval, x))
        # One line at a time: each (3, 4N) block against its own scale.
        flows = np.zeros((m, 3, x.size))
        flows[np.arange(m)[:, None, None], np.arange(3)[:, None], cols[:, None, :]] = (
            grid.line_flow_derivatives(x, k, l, g, b)
        )
        fd = fd_jacobian(lambda y: grid.line_flows(y, k, l, g, b).ravel(), x).reshape(m, 3, x.size)
        for analytic, numeric in zip(flows, fd):
            track(analytic, numeric)

    region_sets = measurements.split_by_region(mset30, part30)
    for i, (region, region_set) in enumerate(zip(part30.regions, region_sets)):
        residual = measurements.RegionResidual(region.case, region_set)
        for z in random_states(region.case.n_bus, 50, seed=6 + i):
            track(residual.jacobian(z), fd_jacobian(residual.eval, z))

    elapsed = time.perf_counter() - start
    print(f"criterion 5: worst_relative_error={worst:.3e} time={elapsed:.2f}s")
    assert worst <= 1e-6
    assert elapsed <= 5.0


def test_criterion_06_power_flow_ground_truth(case30):
    """Newton power flow on the 30-bus case: residual below 1e-10 within 10
    iterations and network energy balance to 1e-8."""
    sol = powerflow.solve_power_flow(case30)
    residual = np.abs(grid.PowerFlowModel(case30).eval(sol.state)).max()
    _, _, p, _ = grid.unpack_state(sol.state)
    balance = abs(p.sum() - line_losses(case30, sol.state))
    print(
        f"criterion 6: iterations={sol.iterations} residual={residual:.3e} "
        f"energy_balance={balance:.3e}"
    )
    assert sol.iterations <= 10
    assert residual <= 1e-10
    assert balance <= 1e-8


def test_criterion_07_partition_fidelity(case30, part30, part6, part12):
    """Series recombination of the half lines reproduces every original
    admittance to 1e-12, and the stacked coupling rows vanish exactly when
    and only when the copies of every auxiliary pair agree in voltage and
    carry opposite injections."""
    defects = {
        part.case.name: partition.merge_check(part) for part in (part30, part6, part12)
    }
    rng = np.random.default_rng(7)
    worst_kernel = 0.0
    for x in random_states(case30.n_bus, 5, seed=8):
        zs = partition.extend_state(part30, x)
        worst_kernel = max(worst_kernel, np.abs(partition.consensus_gap(part30, zs)).max())
        # Original-node components and opposite injection bumps of a
        # pair's two copies are free directions.
        bumped = [z + 0.0 for z in zs]
        for region, z in zip(part30.regions, bumped):
            for bus_id in region.original_bus_ids:
                pos = region.case.index[bus_id]
                z[4 * pos : 4 * pos + 4] += rng.normal(size=4)
        for pair in part30.aux_pairs:
            low = part30.regions[pair.low_region].case.index[pair.low_aux]
            high = part30.regions[pair.high_region].case.index[pair.high_aux]
            for component in (grid.P, grid.Q):
                delta = rng.normal()
                bumped[pair.low_region][4 * low + component] += delta
                bumped[pair.high_region][4 * high + component] -= delta
        worst_kernel = max(worst_kernel, np.abs(partition.consensus_gap(part30, bumped)).max())
        # Any single-copy disagreement lands in exactly its own row.
        for pair_idx, pair in enumerate(part30.aux_pairs):
            for component in (grid.THETA, grid.V, grid.P, grid.Q):
                row = 4 * pair_idx + component
                delta = float(rng.uniform(0.5, 1.5))
                poked = [z + 0.0 for z in zs]
                low = part30.regions[pair.low_region].case.index[pair.low_aux]
                high = part30.regions[pair.high_region].case.index[pair.high_aux]
                poked[pair.low_region][4 * low + component] += delta
                gap = partition.consensus_gap(part30, poked)
                low_value = poked[pair.low_region][4 * low + component]
                high_value = poked[pair.high_region][4 * high + component]
                if component in (grid.THETA, grid.V):
                    # Voltage rows read the disagreement of the copies.
                    sign = 1.0 if pair.low_region < pair.high_region else -1.0
                    assert gap[row] == sign * (low_value - high_value)
                else:
                    # Injection rows read the power balance of the midpoint.
                    assert gap[row] == low_value + high_value
                assert np.count_nonzero(gap) == 1
    print(
        f"criterion 7: merge_defects={ {k: '%.2e' % v for k, v in defects.items()} } "
        f"kernel_residual={worst_kernel:.3e}"
    )
    assert max(defects.values()) <= 1e-12
    assert worst_kernel == 0.0


def test_criterion_08_posterior_bands_and_monte_carlo(monkeypatch, part30, mset30, aladin30, case6, truth6):
    """The distributed posterior report lands in the plausible accuracy
    bands (average relative std: theta in [0.05%, 5%], v in [0.02%, 1.7%]),
    its covariance is symmetric PSD, and on the small case the bound matches
    a 500-realization Monte-Carlo scatter within 25%, all inside 60 s."""
    start = time.perf_counter()
    report = posterior.analyze(part30, mset30, aladin30.zs)
    avg_theta = float(report.averages[grid.THETA])
    avg_v = float(report.averages[grid.V])
    asymmetry = np.abs(report.covariance - report.covariance.T).max()
    eigs = np.linalg.eigvalsh(report.covariance)

    # Matched weights make the bound exact, so the scatter must reproduce it.
    floor = 2.0
    noise = measurements.NoiseConfig(floor=floor)
    node_w = 1.0 / (
        np.array([noise.rel_var_theta, noise.rel_var_v, noise.rel_var_p, noise.rel_var_q])
        * floor**2
    )
    line_w = np.full(3, 1.0 / (noise.rel_var_line * floor**2))
    exact = measurements.simulate_measurements(
        case6, truth6, noise=None, rng=0, node_weights=node_w, line_weights=line_w
    )
    bound = posterior.analyze_central(case6, exact, truth6).state_std
    monkeypatch.setattr(central, "TOL", 1e-8)
    rng = np.random.default_rng(99)
    reps = 500
    estimates = np.empty((reps, truth6.size))
    for r in range(reps):
        mset = measurements.simulate_measurements(
            case6, truth6, noise=noise, rng=rng, node_weights=node_w, line_weights=line_w
        )
        estimates[r] = central.solve_central(case6, mset, x0=truth6).x
    mc_std = estimates.std(axis=0, ddof=1)
    meaningful = bound > 1e-6
    deviation = np.abs(mc_std[meaningful] / bound[meaningful] - 1.0).max()
    elapsed = time.perf_counter() - start

    print(
        f"criterion 8: avg_rel_std theta={100 * avg_theta:.2f}% v={100 * avg_v:.3f}% "
        f"min_eig={eigs.min():.3e} mc_deviation={deviation:.3f} "
        f"({int(meaningful.sum())} components) time={elapsed:.1f}s"
    )
    assert 0.0005 <= avg_theta <= 0.05
    assert 0.0002 <= avg_v <= 0.017
    assert asymmetry <= 1e-12
    assert eigs.min() >= -1e-10 * max(eigs.max(), 1.0)
    assert meaningful.sum() >= 12
    assert deviation <= 0.25
    assert elapsed <= 60.0


def test_criterion_09_fixed_point_and_degenerate_cases(case30, part30, truth30, mset30, central30):
    """A consensus-feasible optimum is recognized in one iteration, a
    single-region run reproduces the central solve to 1e-8, and exact
    measurements are inverted back to the truth to 1e-6 from flat start."""
    exact = measurements.simulate_measurements(
        case30, truth30, noise=None, rng=0,
        measured_lines=partition.internal_line_keys(part30),
    )
    fixed = aladin.run_aladin(part30, exact, z0=partition.extend_state(part30, truth30))
    single_part = partition.partition_grid(case30, {b: 0 for b in case30.bus_ids})
    single = aladin.run_aladin(single_part, mset30, config=aladin.RunConfig(eps=1e-8))
    single_gap = np.abs(single.zs[0] - central30.x).max()
    recovered = aladin.run_aladin(part30, exact)
    recovery_gap = np.abs(partition.restrict_state(part30, recovered.zs) - truth30).max()
    print(
        f"criterion 9: fixed_point_iterations={fixed.iterations} "
        f"single_region_gap={single_gap:.3e} zero_noise_gap={recovery_gap:.3e}"
    )
    assert fixed.converged and fixed.iterations == 1
    assert single.converged and single_gap <= 1e-8
    assert recovered.converged and recovery_gap <= 1e-6


def test_criterion_10_bitwise_determinism(tmp_path):
    """Two estimations with the same seed and configuration write
    byte-identical history files."""
    histories = []
    for sub in ("a", "b"):
        out = tmp_path / sub
        code = cli.main(
            ["estimate", "--case", "ieee30", "--partition", "default4",
             "--seed", "7", "--out", str(out)]
        )
        assert code == 0
        histories.append((out / "aladin_history.csv").read_bytes())
    print(
        f"criterion 10: history_bytes={len(histories[0])} "
        f"identical={histories[0] == histories[1]}"
    )
    assert histories[0] == histories[1]
