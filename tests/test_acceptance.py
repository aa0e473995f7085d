"""Acceptance gate: one test (and one printed PASS/FAIL line) per release
criterion, each with its tolerance pinned in the assertion.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the summary
lines; the suite is self-contained except for the optional real-data
check, which looks for dataset archives and skips when none are
present.
"""

import os
import time

import numpy as np
import pytest

from mmvfl import baselines
from mmvfl.baselines import supfl_solve, supmvlfl_solve
from mmvfl.data import load_csv, make_folds, synth_planted
from mmvfl.evaluation import (
    MeanAccuracy,
    diff_table,
    mean_curves,
    render_diff_table,
    run_grid,
    select_best,
)
from mmvfl.featsel import score_features, select_top
from mmvfl.federation import audit_trace, run_federated
from mmvfl.optimizer import (
    EPS,
    Hyperparams,
    joint_consensus,
    make_states,
    one_hot,
    pseudo_label_update,
    run_reference,
)

from oracles import (
    analytic_block_gradients,
    finite_difference_gradient,
    fit_sparse_transform,
    gd_quadratic_minimizer,
    grid_minimize_scalar,
    joint_minimizer,
    loop_reweight_diag,
    smoothed_objective_optimum,
    solve_transform,
    total_objective,
)


def report(name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {name}: {status}{suffix}")
    assert ok, f"{name} failed: {detail}"


def random_problem(rng, num_participants, max_samples=300, max_dim=64):
    num_samples = int(rng.integers(min(30, max_samples), max_samples + 1))
    num_classes = int(rng.integers(2, 6))
    dims = [int(rng.integers(3, max_dim + 1)) for _ in range(num_participants)]
    views = [rng.standard_normal((num_samples, d)) for d in dims]
    raw = rng.integers(0, num_classes, size=num_samples)
    raw[:num_classes] = np.arange(num_classes)
    labels = one_hot(raw, num_classes)
    return views, labels


def random_hyper(rng, num_participants, **overrides):
    kwargs = dict(
        sparsity=float(10.0 ** rng.uniform(-4.0, 0.5)),
        consensus_penalty=float(10.0 ** rng.uniform(0.0, 3.0)),
        label_penalty=float(10.0 ** rng.uniform(0.0, 3.0)),
    )
    kwargs.update(overrides)
    return Hyperparams.uniform(num_participants, **kwargs)


# cache of federated sessions so the privacy criterion audits every
# session this module produced, not just its own
_FEDERATED_SESSIONS: list = []


def monotone_problem(index):
    """Problem ``index`` of the 50 seeded monotone-convergence problems:
    ``(views, labels, hyper)`` with 2, 3 or 5 participants."""
    rng = np.random.default_rng(1000 + index)
    k = (2, 3, 5)[index % 3]
    views, labels = random_problem(rng, k)
    return views, labels, random_hyper(rng, k)


def test_monotone_convergence():
    """Objective traces never rise beyond 1e-9 absolute slack, and every
    run stops on ``outer_tol``."""
    started = time.monotonic()
    worst_rise = 0.0
    checked = 0
    stopped_at_outer_max = set()
    for index in range(50):
        views, labels, hyper = monotone_problem(index)
        result = run_reference(views, labels, hyper, seed=index)
        trace = result.objectives
        for previous, current in zip(trace, trace[1:]):
            worst_rise = max(worst_rise, current - previous)
        checked += len(trace)
        assert len(trace) <= hyper.outer_max
        if not result.converged:
            stopped_at_outer_max.add(index)
    elapsed = time.monotonic() - started
    ok = worst_rise <= 1e-9 and elapsed < 60.0 and stopped_at_outer_max == set()
    report("monotone-convergence", ok,
           f"50 instances, worst rise {worst_rise:.3e}, "
           f"stopped at outer_max: {sorted(stopped_at_outer_max)}, {elapsed:.1f}s")


def test_converged_runs_stop_near_the_optimum():
    """Every monotone-convergence run but problem 46 stops on
    ``outer_tol`` and ends within 20 ``outer_tol`` (relative) of the
    optimum FISTA finds; a run that stops at ``outer_max`` is reported by
    name with its excess."""
    # A run that contracts linearly at rate rho per round and stops on a
    # relative change of outer_tol = 1e-5 sits about 1e-5 / (1 - rho)
    # above the optimum, so the bound allows rho up to 0.95.  Measured
    # worst converged excess: 1.25e-4 (problem 7, 26 rounds) with two-block
    # rounds; 1.01e-4 (35 rounds) with the earlier Anderson-extrapolated
    # consensus, and 6.5e-5 (16 rounds) when each round also solved its
    # transform subproblem to an inner tolerance.
    started = time.monotonic()
    worst, worst_index = 0.0, None
    stopped_at_outer_max = {}
    for index in range(50):
        if index == 46:
            # FISTA takes about 35 s on it, against about 6 s for the
            # other 49 together; the monotone test still runs it
            continue
        views, labels, hyper = monotone_problem(index)
        result = run_reference(views, labels, hyper, seed=index)
        optimum, _ = smoothed_objective_optimum(
            views, labels, {0}, hyper.sparsity, hyper.consensus_penalty, hyper.label_penalty,
            EPS, rtol=1e-10)
        excess = (result.objectives[-1] - optimum) / abs(optimum)
        if not result.converged:
            stopped_at_outer_max[index] = excess
        elif excess > worst:
            worst, worst_index = excess, index
    bound = 20 * hyper.outer_tol
    # a run that stops at outer_max escapes the bound, so it is named and
    # fails the gate
    ok = worst <= bound and not stopped_at_outer_max
    stopped = ", ".join(f"problem {index}, {excess:.2e} above the optimum"
                        for index, excess in sorted(stopped_at_outer_max.items()))
    report("optimality-gap", ok,
           f"49 instances, worst converged excess {worst:.2e} (problem {worst_index}) "
           f"<= {bound:.0e}; stopped at outer_max: {stopped}; "
           f"{time.monotonic() - started:.1f}s")


def test_closed_form_updates_match_oracles():
    """The closed-form updates (the transform, the pseudo-label rule with
    and without labels, and the joint consensus over a random owner set)
    agree with independent minimizers within 1e-6 on 200 random
    instances."""
    worst = 0.0

    # 50 x transform update vs gradient descent run to stationarity
    for index in range(50):
        rng = np.random.default_rng(2000 + index)
        n, d, c = int(rng.integers(6, 13)), int(rng.integers(2, 7)), int(rng.integers(2, 4))
        features = rng.standard_normal((n, d))
        targets = rng.standard_normal((n, c))
        diag = loop_reweight_diag(rng.standard_normal((d, c)), 1e-6)
        weight = float(10.0 ** rng.uniform(-1.0, 0.5))
        ours = solve_transform(features, targets, diag, weight)
        oracle = gd_quadratic_minimizer(features, targets, diag, weight)
        worst = max(worst, float(np.max(np.abs(ours - oracle))))

    # 50 x pseudo-label update with labels vs scalar grid search
    for index in range(50):
        rng = np.random.default_rng(3000 + index)
        projected, consensus, label = rng.standard_normal(3) * 2.0
        zeta = float(10.0 ** rng.uniform(-1.0, 3.0))
        eta = float(10.0 ** rng.uniform(-1.0, 3.0))
        ours = pseudo_label_update(
            np.array([[projected]]), np.array([[consensus]]), zeta,
            np.array([[label]]), eta)[0, 0]
        oracle = grid_minimize_scalar(
            lambda v: (v - projected) ** 2 + zeta * (v - consensus) ** 2
            + eta * (v - label) ** 2, -10.0, 10.0)
        worst = max(worst, abs(float(ours) - oracle))

    # 50 x pseudo-label update without labels vs scalar grid search
    for index in range(50):
        rng = np.random.default_rng(4000 + index)
        projected, consensus = rng.standard_normal(2) * 2.0
        zeta = float(10.0 ** rng.uniform(-1.0, 3.0))
        ours = pseudo_label_update(
            np.array([[projected]]), np.array([[consensus]]), zeta)[0, 0]
        oracle = grid_minimize_scalar(
            lambda v: (v - projected) ** 2 + zeta * (v - consensus) ** 2,
            -10.0, 10.0)
        worst = max(worst, abs(float(ours) - oracle))

    # 50 x joint consensus (and the pseudo-labels refreshed against it)
    # vs a plain solve of the normal equations, the labels held by a
    # random non-empty set of participants
    owner_counts = []
    for index in range(50):
        rng = np.random.default_rng(5000 + index)
        k = int(rng.integers(2, 6))
        owners = {int(j) for j in rng.choice(k, size=int(rng.integers(1, k + 1)), replace=False)}
        owner_counts.append(len(owners))
        hyper = Hyperparams(
            sparsity=(1.0,) * k,
            consensus_penalty=tuple(float(10.0 ** rng.uniform(-1.0, 3.0)) for _ in range(k)),
            label_penalty=float(10.0 ** rng.uniform(-1.0, 3.0)))
        projections = [rng.standard_normal((3, 2)) * 2.0 for _ in range(k)]
        label, broadcast = rng.standard_normal((2, 3, 2)) * 2.0

        def refresh(j, consensus):
            return pseudo_label_update(projections[j], consensus, hyper.consensus_penalty[j],
                                       label if j in owners else None, hyper.label_penalty)

        ours, _ = joint_consensus([refresh(j, broadcast) for j in range(k)], broadcast,
                                  hyper, owners)
        pseudo, oracle = joint_minimizer(projections, label, owners,
                                         hyper.consensus_penalty, hyper.label_penalty)
        worst = max(worst, float(np.max(np.abs(ours - oracle))))
        for j in range(k):
            worst = max(worst, float(np.max(np.abs(refresh(j, ours) - pseudo[j]))))

    # the draws cover one owner, two owners, and more
    assert {1, 2} <= set(owner_counts) and max(owner_counts) > 2
    report("closed-form-oracle-equivalence", worst <= 1e-6,
           f"200 instances, worst gap {worst:.3e} <= 1e-6")


def test_stationarity_and_block_gradients():
    """Reweighted solves are stationary and analytic block gradients
    match finite differences of the full objective."""
    worst_stationarity = 0.0
    for index in range(20):
        rng = np.random.default_rng(6000 + index)
        n, d, c = int(rng.integers(8, 16)), int(rng.integers(2, 7)), int(rng.integers(2, 4))
        features = rng.standard_normal((n, d))
        targets = rng.standard_normal((n, c))
        sparsity = float(10.0 ** rng.uniform(-2.0, 0.0))
        transform, diag, _ = fit_sparse_transform(features, targets, sparsity)
        residual = (2.0 * features.T @ (features @ transform - targets)
                    + 2.0 * sparsity * diag[:, None] * transform)
        bound = 1e-8 * (1.0 + float(np.linalg.norm(targets)))
        worst_stationarity = max(worst_stationarity,
                                 float(np.linalg.norm(residual)) / bound)
    stationary_ok = worst_stationarity <= 1.0

    worst_gradient = 0.0
    for index in range(20):
        rng = np.random.default_rng(7000 + index)
        k = int(rng.integers(2, 4))
        num_samples, num_classes = int(rng.integers(6, 11)), int(rng.integers(2, 4))
        dims = [int(rng.integers(2, 6)) for _ in range(k)]
        views = [rng.standard_normal((num_samples, d)) for d in dims]
        raw = rng.integers(0, num_classes, size=num_samples)
        raw[:num_classes] = np.arange(num_classes)
        labels = one_hot(raw, num_classes)
        hyper = random_hyper(rng, k)
        states = make_states(views, labels, hyper, seed=index)
        for state in states:
            state.transform = rng.standard_normal(state.transform.shape)
            state.pseudo_labels = rng.standard_normal(state.pseudo_labels.shape)
        consensus = rng.standard_normal((num_samples, num_classes))

        analytic_w, analytic_z, analytic_c = analytic_block_gradients(
            views, [st.transform for st in states],
            [st.pseudo_labels for st in states], consensus, labels, {0},
            list(hyper.sparsity), list(hyper.consensus_penalty),
            hyper.label_penalty)

        def objective_with(attr, which, value):
            saved = getattr(states[which], attr)
            setattr(states[which], attr, value)
            out = total_objective(states, consensus, hyper)
            setattr(states[which], attr, saved)
            return out

        def relative_gap(numeric, analytic):
            scale = max(1.0, float(np.linalg.norm(analytic)))
            return float(np.linalg.norm(numeric - analytic)) / scale

        for which, state in enumerate(states):
            numeric = finite_difference_gradient(
                lambda w, i=which: objective_with("transform", i, w),
                state.transform)
            worst_gradient = max(worst_gradient,
                                 relative_gap(numeric, analytic_w[which]))
            numeric = finite_difference_gradient(
                lambda z, i=which: objective_with("pseudo_labels", i, z),
                state.pseudo_labels)
            worst_gradient = max(worst_gradient,
                                 relative_gap(numeric, analytic_z[which]))
        numeric = finite_difference_gradient(
            lambda z: total_objective(states, z, hyper), consensus)
        worst_gradient = max(worst_gradient, relative_gap(numeric, analytic_c))
    gradient_ok = worst_gradient <= 1e-5

    report("stationarity-and-gradients", stationary_ok and gradient_ok,
           f"stationarity {worst_stationarity:.2e}x bound, "
           f"gradient gap {worst_gradient:.3e} <= 1e-5")


def test_federated_equals_reference(wire):
    """Both transports reproduce the single-process run bit for bit."""
    mismatches = []
    for k, transport in [(2, "in_process"), (3, "in_process"), (6, "in_process"),
                         (2, "tcp"), (3, "tcp"), (6, "tcp")]:
        rng = np.random.default_rng(8000 + k)
        views, labels = random_problem(rng, k, max_samples=20, max_dim=6)
        hyper = random_hyper(rng, k, outer_max=12)
        reference = run_reference(views, labels, hyper, seed=k)
        wire.clear()
        federated = run_federated(views, labels, hyper, seed=k,
                                  transport=transport)
        _FEDERATED_SESSIONS.append((views, labels, federated, dict(wire)))
        same = federated.objectives == reference.objectives
        same &= federated.consensus.tobytes() == reference.consensus.tobytes()
        for state, transform, pseudo in zip(federated.states, reference.transforms,
                                            reference.pseudo_labels):
            same &= state.transform.tobytes() == transform.tobytes()
            same &= state.pseudo_labels.tobytes() == pseudo.tobytes()
        if not same:
            mismatches.append((k, transport))
    report("federated-equals-reference", not mismatches,
           f"K in {{2,3,6}} x {{in_process,tcp}} bit-identical"
           + (f"; mismatches: {mismatches}" if mismatches else ""))


def test_privacy_trace(wire):
    """Nothing but samples x classes matrices ever crosses the wire, and
    no payload equals a feature block, transform, or the label matrix."""
    if not _FEDERATED_SESSIONS:
        rng = np.random.default_rng(9000)
        views, labels = random_problem(rng, 3, max_samples=20, max_dim=6)
        hyper = random_hyper(rng, 3, outer_max=10)
        result = run_federated(views, labels, hyper, seed=0)
        _FEDERATED_SESSIONS.append((views, labels, result, dict(wire)))

    violations = []
    leaks = 0
    messages = 0
    total_bytes = 0
    for views, labels, result, sent in _FEDERATED_SESSIONS:
        n, num_classes = labels.shape
        reportage = audit_trace(result.trace, n, num_classes)
        violations.extend(reportage.violations)
        messages += len(result.trace)
        total_bytes += reportage.total_bytes
        protected = [labels] + list(views) + [st.transform for st in result.states]
        protected_bytes = {p.tobytes() for p in protected}
        for entry in result.trace:
            payload = sent[entry.kind, entry.round, entry.participant_id].payload
            if payload is None:
                continue
            if entry.payload_shape != (n, num_classes):
                leaks += 1
            if payload.tobytes() in protected_bytes:
                leaks += 1
    ok = not violations and leaks == 0
    report("privacy-trace", ok,
           f"{len(_FEDERATED_SESSIONS)} sessions, {messages} messages, "
           f"{total_bytes} bytes, {len(violations)} violations, {leaks} leaks")


def test_label_sharing_fidelity_trend():
    """Stronger agreement weights pull pseudo-labels toward the consensus
    and the owner's toward the labels, on every block, for 10 seeds."""
    failures = 0
    for seed in range(10):
        dataset, _ = synth_planted(num_samples=120, dims=(10, 12, 8),
                                   n_informative=3, noise=0.3, seed=seed)
        labels = one_hot(dataset.labels, dataset.num_classes)
        runs = {}
        for strength in (1000.0, 10.0):
            hyper = Hyperparams.uniform(
                3, sparsity=0.1, consensus_penalty=strength,
                label_penalty=strength)
            runs[strength] = run_reference(dataset.views, labels, hyper, seed=seed)
        strong, weak = runs[1000.0], runs[10.0]
        for k in range(3):
            strong_gap = np.linalg.norm(strong.pseudo_labels[k] - strong.consensus)
            weak_gap = np.linalg.norm(weak.pseudo_labels[k] - weak.consensus)
            if not strong_gap < weak_gap:
                failures += 1
        strong_label_gap = np.linalg.norm(strong.pseudo_labels[0] - labels)
        weak_label_gap = np.linalg.norm(weak.pseudo_labels[0] - labels)
        if not strong_label_gap < weak_label_gap:
            failures += 1
    report("label-sharing-fidelity-trend", failures == 0,
           f"zeta=eta=1000 vs 10, 10 seeds, {failures} non-strict comparisons")


def test_planted_feature_recovery():
    """Top-10% selection on the default planted synthetic is at least 90%
    planted columns, per participant, averaged over 10 seeds, for the
    federated objective and the single-view baseline alike."""
    hits = {"mmvfl": np.zeros(3), "supfl": np.zeros(3)}
    seeds = range(10)
    for seed in seeds:
        dataset, informative = synth_planted(seed=seed)
        labels = one_hot(dataset.labels, dataset.num_classes)
        hyper = Hyperparams.uniform(3, sparsity=0.1)
        result = run_reference(dataset.views, labels, hyper, seed=seed)
        transforms = {"mmvfl": result.transforms,
                      "supfl": [supfl_solve(v, labels, 0.1)[0]
                                for v in dataset.views]}
        for method, per_view in transforms.items():
            for k, transform in enumerate(per_view):
                selected = select_top(score_features(transform), 10.0)
                planted = set(informative[k])
                hits[method][k] += (
                    len(planted.intersection(selected)) / len(selected))
    rates = {method: hits[method] / len(list(seeds)) for method in hits}
    ok = all(np.all(rate >= 0.9) for rate in rates.values())
    detail = ", ".join(
        f"{method} {np.round(rate, 3).tolist()}" for method, rate in rates.items())
    report("planted-feature-recovery", ok, f"selected-column hit rates {detail}")


def test_baseline_separability(monkeypatch):
    """The joint multi-view baseline is the per-view baseline run K times:
    transforms agree within 1e-10 on 20 instances at matched iteration
    counts."""
    monkeypatch.setattr(baselines, "TOL", 1e-300)
    monkeypatch.setattr(baselines, "MAX_ITER", 4)
    worst = 0.0
    for index in range(20):
        rng = np.random.default_rng(11000 + index)
        k = int(rng.integers(2, 5))
        n, c = int(rng.integers(20, 80)), int(rng.integers(2, 4))
        views = [rng.standard_normal((n, int(rng.integers(3, 20)))) for _ in range(k)]
        raw = rng.integers(0, c, size=n)
        raw[:c] = np.arange(c)
        labels = one_hot(raw, c)
        beta = float(10.0 ** rng.uniform(-3.0, 0.5))
        joint, _, _ = supmvlfl_solve(views, labels, beta)
        for view, transform in zip(views, joint):
            solo, _, _ = supfl_solve(view, labels, beta)
            worst = max(worst, float(np.max(np.abs(transform - solo))))
    report("baseline-separability", worst <= 1e-10,
           f"20 instances, worst transform gap {worst:.3e} <= 1e-10")


def _find_archive(root, name, num_views):
    directory = os.path.join(root, name)
    views = [os.path.join(directory, f"view_{k + 1}.csv")
             for k in range(num_views)]
    labels = os.path.join(directory, "labels.csv")
    if all(os.path.isfile(p) for p in views + [labels]):
        return views, labels
    return None


def test_real_data_trend():
    """Best-effort: when dataset archives are present in the documented
    CSV layout, the full protocol must land within 5 points of the
    single-view baseline and produce non-degenerate curves."""
    roots = [os.environ.get("MMVFL_DATA_DIR"),
             os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                          "data")]
    archives = {}
    for root in roots:
        if not root or not os.path.isdir(root):
            continue
        for name, num_views in (("handwritten", 5), ("caltech7", 6)):
            if name not in archives:
                found = _find_archive(root, name, num_views)
                if found:
                    archives[name] = found
    if not archives:
        print("ACCEPTANCE real-data-trend: SKIP (no dataset archives found)")
        pytest.skip("no dataset archives found")

    beta_grid = (1e-5, 1e-4, 1e-3, 1e-2, 1e-1, 1.0, 10.0)
    p_grid = (2.0, 4.0, 6.0, 8.0, 10.0, 20.0, 30.0, 40.0,
              50.0, 60.0, 70.0, 80.0, 90.0, 100.0)
    problems = []
    for name, (view_paths, label_path) in sorted(archives.items()):
        dataset = load_csv(view_paths, label_path)
        folds = make_folds(dataset, 5, seed=0)
        rows = run_grid(("mmvfl", "supfl"), dataset, folds, beta_grid, p_grid,
                        Hyperparams.uniform(dataset.num_participants), seed=0)
        curves = {method: mean_curves(select_best(r for r in rows if r.method == method))
                  for method in ("mmvfl", "supfl")}
        table = diff_table(curves["mmvfl"], curves["supfl"])
        if abs(table.average) > 5.0:
            problems.append(f"{name}: mean gap {table.average:.2f} points")
        by_point = {(c.participant, c.p): c.accuracy for c in curves["mmvfl"]}
        for participant in table.participants:
            if by_point[(participant, 100.0)] < by_point[(participant, 2.0)] - 0.10:
                problems.append(f"{name}: degenerate curve for participant {participant}")
    report("real-data-trend", not problems,
           f"archives {sorted(archives)}"
           + (f"; problems: {problems}" if problems else ""))


def test_reported_table_formatting():
    """The table pipeline reproduces the published comparison rows
    digit for digit when fed their per-participant gaps."""
    expected = {
        "handwritten_vs_supfl": (
            (1.46, -2.39, 0.76, 6.48, 0.77),
            "1.46,-2.39,0.76,6.48,0.77,1.42"),
        "handwritten_vs_supmvlfl": (
            (1.99, -2.31, 1.03, 9.67, 1.16),
            "1.99,-2.31,1.03,9.67,1.16,2.31"),
        "object_images_vs_supfl": (
            (0.69, 2.16, 1.55, -1.22, -6.29, -4.12),
            "0.69,2.16,1.55,-1.22,-6.29,-4.12,-1.21"),
        "object_images_vs_supmvlfl": (
            (0.41, 2.82, 2.61, -1.18, -5.71, -4.20),
            "0.41,2.82,2.61,-1.18,-5.71,-4.20,-0.88"),
    }
    wrong = []
    for name, (gaps, printed) in expected.items():
        ours = [MeanAccuracy(method="a", participant=k, p=10.0, accuracy=g / 100.0)
                for k, g in enumerate(gaps)]
        theirs = [MeanAccuracy(method="b", participant=k, p=10.0, accuracy=0.0)
                  for k in range(len(gaps))]
        rendered = render_diff_table(diff_table(ours, theirs)).splitlines()[1]
        if rendered != printed:
            wrong.append(f"{name}: {rendered} != {printed}")
    report("table-formatting-fidelity", not wrong,
           "4 published rows reproduced exactly"
           + (f"; {wrong}" if wrong else ""))
