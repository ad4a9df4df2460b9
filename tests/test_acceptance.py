"""End-to-end acceptance gate.

Every test checks one shipped guarantee at desk scale against an
independent oracle, enforces its runtime budget, and prints a single
verdict line (visible with -s or -rA).
"""

import itertools
import json
import time

import numpy as np

import teamfield as tf
from teamfield.cli import main as cli_main
from teamfield.counts import MeanField
from teamfield.finite_mpe import (JointLattice, best_response,
                                  initial_distribution, policy_value,
                                  solve_mpe, verify_mpe)
from teamfield.limit import flow, project_policy_to_lattice, solve_mpe_inf
from teamfield.metrics import (estimate_lipschitz, fit_rate, kappa_envelope,
                               theorem4_bound)
from teamfield.model import with_populations
from teamfield.simulate import empirical_kernel_check, estimate_cost, lift_policy
from teamfield.stage_game import _cost_table, build_prescription_set
from teamfield.static_games import (load_static_game_file, pure_nash_static,
                                    static_report, team_nash_static)

from conftest import DATA, kernel_row
from oracles import mean_field, stage_cost, team_kernel_convolution


def _verdict(idx, name, ok, detail, elapsed, budget):
    ok = bool(ok) and elapsed < budget
    print("criterion %2d %-24s %s  (%s; %.2fs < %ds)"
          % (idx, name, "PASS" if ok else "FAIL", detail, elapsed, budget))
    assert ok, "criterion %d (%s): %s after %.2fs" % (idx, name, detail, elapsed)


def _lattice_points(spec):
    lattice = JointLattice(spec)
    return lattice, list(np.ndindex(lattice.shape))


def test_criterion_01_static_team_nash():
    t0 = time.monotonic()
    game = load_static_game_file(DATA / "matrix_team_example.json")
    ne = [game.label(p) for p in pure_nash_static(game)]
    tne = [game.label(p) for p in team_nash_static(game)]
    rep = static_report(game)
    ok = (ne == [("T", "L", "I"), ("T", "R", "II"),
                 ("B", "L", "II"), ("B", "R", "I")]
          and tne == [("T", "L", "I"), ("B", "L", "II")]
          and len(rep["nash_excluded_by_team_deviation"]) == 2)
    _verdict(1, "static-team-nash", ok, "|NE|=%d |TNE|=%d" % (len(ne), len(tne)),
             time.monotonic() - t0, 1)


def _agent_level_team_kernel(spec, k, m, z, gamma):
    """Exhaustive per-agent oracle: enumerate every action and landing
    combination of the individually simulated agents."""
    from teamfield.model import flatten_mean_field, transition_matrix
    P = transition_matrix(spec, k, flatten_mean_field(spec, z))
    S, A = spec.teams[k].n_states, spec.teams[k].n_actions
    agents = [s for s in range(S) for _ in range(m[s])]
    out = {}
    for acts in itertools.product(range(A), repeat=len(agents)):
        pa = np.prod([gamma.rows[s, a] for s, a in zip(agents, acts)])
        if pa == 0.0:
            continue
        for lands in itertools.product(range(S), repeat=len(agents)):
            pl = pa * np.prod([P[s, a, sp]
                               for s, a, sp in zip(agents, acts, lands)])
            key = tuple(np.bincount(lands, minlength=S))
            out[key] = out.get(key, 0.0) + float(pl)
    return out


def test_criterion_02_kernel_exactness(reference_spec, reference_sets):
    t0 = time.monotonic()
    lattice, idxs = _lattice_points(reference_spec)
    worst, mass_err = 0.0, 0.0
    for idx in idxs:
        z = mean_field(lattice, idx)
        ms = [np.rint(np.asarray(z.per_team[k]) * 2).astype(int)
              for k in range(2)]
        for g0 in reference_sets[0].items:
            for g1 in reference_sets[1].items:
                joint = np.multiply.outer(*(kernel_row(reference_spec, k, ms[k], z,
                                                       (g0, g1)[k]) for k in range(2)))
                mass_err = max(mass_err, abs(joint.sum() - 1.0))
                oracle = [_agent_level_team_kernel(reference_spec, k, ms[k],
                                                   z, (g0, g1)[k])
                          for k in range(2)]
                got = {(tuple(lattice.teams[0].counts[i].tolist()),
                        tuple(lattice.teams[1].counts[j].tolist())): p
                       for (i, j), p in np.ndenumerate(joint)}
                keys = set(got)
                for k0 in oracle[0]:
                    for k1 in oracle[1]:
                        keys.add((k0, k1))
                for key in keys:
                    want = oracle[0].get(key[0], 0.0) * oracle[1].get(key[1], 0.0)
                    worst = max(worst, abs(got.get(key, 0.0) - want))
    ok = worst <= 1e-10 and mass_err <= 1e-10
    _verdict(2, "kernel-exactness", ok,
             "max entry gap %.2e, mass gap %.2e" % (worst, mass_err),
             time.monotonic() - t0, 10)


def test_criterion_03_sampling_fidelity(reference_spec, reference_sets):
    t0 = time.monotonic()
    z = MeanField(per_team=(np.array([0.5, 0.5]), np.array([0.5, 0.5])))
    gammas = (reference_sets[0].items[2], reference_sets[1].items[1])
    rep = empirical_kernel_check(reference_spec, z, gammas, samples=10 ** 5)
    ok = rep.tv_distance <= 0.01 and rep.samples == 10 ** 5
    _verdict(3, "sampling-fidelity", ok, "tv=%.5f" % rep.tv_distance,
             time.monotonic() - t0, 30)


def test_criterion_04_stage_cost_identity(reference_spec, reference_sets):
    t0 = time.monotonic()
    lattice, idxs = _lattice_points(reference_spec)
    worst = 0.0
    for idx in idxs:
        z = mean_field(lattice, idx)
        Z = [v[None] for v in z.per_team]
        for k in range(2):
            for t in range(reference_spec.horizon):
                limit = _cost_table(reference_spec, k, reference_sets[k], Z, t)[0]
                for g, c in zip(reference_sets[k].items, limit):
                    worst = max(worst, abs(stage_cost(z, g, reference_spec, k, t) - c))
    _verdict(4, "stage-cost-identity", worst <= 1e-12, "max gap %.2e" % worst,
             time.monotonic() - t0, 1)


def test_criterion_05_flow_consistency(reference_spec, reference_sets):
    t0 = time.monotonic()
    lattice, idxs = _lattice_points(reference_spec)
    worst = 0.0
    for idx in idxs:
        z = mean_field(lattice, idx)
        ms = [np.rint(np.asarray(z.per_team[k]) * 2).astype(int)
              for k in range(2)]
        for g0 in reference_sets[0].items:
            for g1 in reference_sets[1].items:
                q = flow(z, (g0, g1), reference_spec)
                for k, g in enumerate((g0, g1)):
                    row = kernel_row(reference_spec, k, ms[k], z, g)
                    mean = row @ lattice.teams[k].counts
                    worst = max(worst, float(np.max(np.abs(
                        mean / 2.0 - q.per_team[k]))))
    _verdict(5, "flow-consistency", worst <= 1e-10, "max gap %.2e" % worst,
             time.monotonic() - t0, 10)


def test_criterion_06_concentration_rate(iid_probe_spec):
    t0 = time.monotonic()
    gammas = (build_prescription_set(iid_probe_spec, 0).items[0],)
    z = MeanField(per_team=(np.array([0.5, 0.5]),))
    fit = fit_rate(iid_probe_spec, z, gammas, [2, 4, 8, 16, 32, 64])
    ok = (not fit.degenerate and -0.65 <= fit.slope <= -0.35
          and fit.r_squared >= 0.95)
    _verdict(6, "concentration-rate", ok,
             "slope=%.3f R2=%.4f" % (fit.slope, fit.r_squared),
             time.monotonic() - t0, 120)


def test_criterion_07_mpe_certificate(reference_spec, reference_sets):
    t0 = time.monotonic()
    policy, _ = solve_mpe(reference_spec, reference_sets, pure_only=True)
    cert = verify_mpe(reference_spec, policy)
    ok = cert.max_gain <= 1e-9 and not policy.mixed_points
    _verdict(7, "mpe-certificate", ok, "max gain %.2e" % cert.max_gain,
             time.monotonic() - t0, 60)


def test_criterion_08_simulation_consistency(reference_spec,
                                             reference_solution):
    t0 = time.monotonic()
    policy, _ = reference_solution
    dp = tf.evaluate_total_cost(reference_spec, policy)
    res = estimate_cost(reference_spec, lift_policy(policy), episodes=10 ** 4)
    gaps = [abs(float(dp[k]) - float(res.mean[k])) / float(res.stderr[k])
            for k in range(2)]
    ok = all(g <= 3.0 for g in gaps)
    _verdict(8, "simulation-consistency", ok,
             "gaps %.2f / %.2f stderr" % tuple(gaps),
             time.monotonic() - t0, 60)


def test_criterion_09_single_team_reduction(single_team_spec):
    t0 = time.monotonic()
    spec = single_team_spec
    sets = (build_prescription_set(spec, 0),)
    policy, values = solve_mpe(spec, sets)
    lattice = policy.lattice
    idxs = list(np.ndindex(lattice.shape))
    init = initial_distribution(spec, lattice)
    dp = float(np.sum(init * values.values[0, 0]))
    items = sets[0].items
    best = np.inf
    for plan in itertools.product(range(len(items)),
                                  repeat=spec.horizon * len(idxs)):
        dist = {idx: float(init[idx]) for idx in idxs if init[idx] > 0}
        total = 0.0
        for t in range(spec.horizon):
            ndist = {}
            for idx, p in dist.items():
                z = mean_field(lattice, idx)
                g = items[plan[t * len(idxs) + idxs.index(idx)]]
                total += p * stage_cost(z, g, spec, 0, t)
                m = np.rint(np.asarray(z.per_team[0]) * 2).astype(int)
                kern = team_kernel_convolution(m, z, g, spec, 0)
                for c, q in zip(kern.support, kern.probs):
                    nidx = (lattice.teams[0].rank(c),)
                    ndist[nidx] = ndist.get(nidx, 0.0) + p * float(q)
            dist = ndist
        best = min(best, total)
    gap = abs(best - dp)
    _verdict(9, "single-team-reduction", gap <= 1e-10,
             "dp=%.6f brute=%.6f gap=%.2e" % (dp, best, gap),
             time.monotonic() - t0, 30)


def test_criterion_10_bound_pipeline(reference_spec):
    t0 = time.monotonic()
    spec = reference_spec
    probe_ns = [2, 4, 8, 16, 32, 64]
    probe_z = MeanField(per_team=(np.array([0.5, 0.5]), np.array([0.5, 0.5])))
    pure = tuple(build_prescription_set(spec, k) for k in range(2))
    rate = fit_rate(spec, probe_z, [ps.items[0] for ps in pure], probe_ns)
    kappa = np.maximum(rate.kappa_hat,
                       kappa_envelope(spec, probe_z, [ps.items for ps in pure],
                                      [max(probe_ns)]))
    gains, bounds = [], []
    for n in (4, 8, 16):
        spn = with_populations(spec, n)
        sets = tuple(build_prescription_set(spn, k) for k in range(2))
        lpolicy, lvalues, _ = solve_mpe_inf(spn, sets)
        fpolicy = project_policy_to_lattice(spn, lpolicy)
        V = policy_value(spn, fpolicy)
        init = initial_distribution(spn, fpolicy.lattice)
        worst = max(float(np.sum(init * (V[0, k] - best_response(spn, k, fpolicy)[1][0])))
                    for k in range(2))
        gains.append(max(worst, 0.0))
        bounds.append(theorem4_bound(kappa, estimate_lipschitz(lvalues, spn),
                                     [n, n]))
    ok = all(g <= b + 1e-12 for g, b in zip(gains, bounds))
    inversions = sum(1 for a, b in zip(gains, gains[1:]) if b > a + 1e-12)
    ok = ok and inversions <= 1
    _verdict(10, "bound-pipeline", ok,
             "gains %s vs bounds %s, %d inversion(s)"
             % (["%.2e" % g for g in gains], ["%.2e" % b for b in bounds],
                inversions),
             time.monotonic() - t0, 300)


def test_criterion_11_reproducibility(tmp_path):
    t0 = time.monotonic()
    spec = DATA / "two_team_reference.json"
    for name in ("one", "two"):
        assert cli_main(["compare", "--spec", str(spec),
                         "--out", str(tmp_path / name)]) == 0
    a, b = tmp_path / "one" / "compare", tmp_path / "two" / "compare"
    names = sorted(p.name for p in a.iterdir())
    same = (names == sorted(p.name for p in b.iterdir()))
    checked = 0
    for name in names:
        if name == "timing.json":
            continue
        same = same and (a / name).read_bytes() == (b / name).read_bytes()
        checked += 1
    rep = json.loads((a / "compare.json").read_text())
    same = same and rep["all_within_3_stderr"]
    _verdict(11, "reproducibility", same and checked >= 2,
             "%d result files byte-identical" % checked,
             time.monotonic() - t0, 120)
