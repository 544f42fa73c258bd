from dataclasses import replace

import numpy as np
import pytest

import admmnet.gcn as gcn
import admmnet.objective as objective
import admmnet.solvers as solvers
from admmnet.errors import BacktrackError, ShapeError
from admmnet.gcn import GcnConfig
from admmnet.linalg import Rng, l2sq
from admmnet.objective import Regularizer, _log_softmax, mean_risk
from admmnet.solvers import (
    FISTA_MAX_ITER,
    FISTA_TOL,
    BacktrackResult,
    FistaResult,
    backtrack_quadratic,
    fista_minimize,
    newton_minimize,
    solve_z_last,
    solve_z_relu,
    update_b,
)
from admmnet.synth import make_sbm_graph
from admmnet.training import BlockRecord, walk_blocks


def softmax(z):
    """Column-wise softmax, for the cross-entropy first-order conditions."""
    return np.exp(_log_softmax(z))


def quad_terms(curvature, anchor0):
    """phi(x) = (c/2)||x - x*||^2 with minimum at anchor0 - grad/c, as the
    ``terms`` of a block that moves no cached quantity."""

    def terms(x, moved):
        return 0.5 * curvature * l2sq(x - anchor0)

    return terms


def backtrack_unshifted(terms, grad, anchor, seed_step):
    return backtrack_quadratic(terms, 0.0, lambda x, t: 0.0, grad, anchor, seed_step)


class TestBacktrack:
    def test_zero_gradient_trivial(self):
        anchor = np.array([[1.0, 2.0]])
        res = backtrack_unshifted(quad_terms(3.0, anchor), np.zeros((1, 2)), anchor, 1.0)
        assert res.trials == 1
        assert np.array_equal(res.candidate, anchor)

    def test_seed_at_curvature_accepts_first(self):
        # quadratic with curvature c: candidate at step t=c is the exact
        # minimizer and Q equals phi there (Taylor equality)
        x0 = np.array([[0.0]])
        c = 5.0
        anchor = np.array([[2.0]])
        grad = c * (anchor - x0)
        res = backtrack_unshifted(quad_terms(c, x0), grad, anchor, seed_step=c)
        assert res.trials == 1
        assert res.step == c

    def test_curvature8_seed1_growth2(self):
        # steps tried: 1, 2, 4, 8 -> first certified step is 8, on trial 4
        x0 = np.array([[0.0]])
        c = 8.0
        anchor = np.array([[1.0]])
        grad = c * anchor
        res = backtrack_unshifted(quad_terms(c, x0), grad, anchor, seed_step=1.0)
        assert res.step == 8.0
        assert res.trials == 4

    def test_certificate_holds_at_exit(self):
        rng = Rng(0)
        for seed in range(20):
            x0 = rng.normal(0, 1, (3, 2))
            c = float(rng.uniform(0.5, 20.0, ()))
            anchor = rng.normal(0, 1, (3, 2))
            grad = c * (anchor - x0)
            res = backtrack_unshifted(quad_terms(c, x0), grad, anchor, seed_step=0.25)
            assert res.violation <= 1e-10

    def test_trial_cap_raises(self):
        # phi rises at every candidate while the model predicts a decrease,
        # so no step certifies: the search stops after MAX_TRIALS trials,
        # each shifting once
        anchor = np.array([[1.0]])
        trials = []

        def shift_of(x, step):
            trials.append(step)
            return 0.0

        def terms(x, moved):
            return 0.0 if x is anchor else 1.0

        with pytest.raises(BacktrackError, match=f"after {solvers.MAX_TRIALS} trials"):
            backtrack_quadratic(terms, 0.0, shift_of, np.array([[-100.0]]), anchor, 1.0)
        assert len(trials) == solvers.MAX_TRIALS == 60

    @pytest.mark.parametrize("regularized", [False, True])
    def test_shifted_trials(self, regularized):
        """A block W whose trials move the cached residual r = y - W a, as
        the MLP's W step does: a plain trial by (G a)/t, affine in 1/t, a
        prox trial by its own (anchor - W) a.  The anchor's ``moved`` is
        ``base`` itself; the result's ``moved`` is the accepted trial's,
        base + shift_of(candidate, step) bit for bit, as terms evaluated it,
        and is the candidate's residual."""
        rng = Rng(3)
        a, y, anchor = rng.normal(0, 1, (4, 6)), rng.normal(0, 1, (2, 6)), rng.normal(0, 1, (2, 4))
        base = y - anchor @ a
        grad = -base @ a.T  # of (1/2)||y - W a||^2 at the anchor
        if regularized:
            prox = Regularizer("l1", 0.5).prox
            shift_of = lambda x, t: (anchor - x) @ a
        else:
            prox, grad_a = None, grad @ a
            shift_of = lambda x, t: grad_a / t
        seen = []

        def terms(x, moved):
            r = moved
            seen.append((x, r))
            return 0.5 * l2sq(r)  # the smooth part; the prox handles the regularizer

        res = backtrack_quadratic(terms, base, shift_of, grad, anchor, 1e-3, prox)
        assert res.trials > 1 and res.violation <= 1e-10
        assert seen[0][0] is anchor and seen[0][1] is base
        assert np.array_equal(res.moved, base + shift_of(res.candidate, res.step))
        assert seen[-1][1] is res.moved
        np.testing.assert_allclose(res.moved, y - res.candidate @ a, rtol=0, atol=1e-12)


def test_step_seeds_warm_start():
    """The walk seeds a step key's search with SEED_INIT at its first visit,
    then with the key's accepted step of the previous iteration over
    STEP_GROWTH, floored at SEED_FLOOR."""
    seeds, accepted = [], iter([8.0, 1e-12, 3.0])

    def update(kind, layer, seed):
        seeds.append(seed)
        return BacktrackResult(step=next(accepted), candidate=None, trials=1, violation=0.0,
                               move_sq=0.0, moved=None)

    record = BlockRecord()
    for _ in range(3):
        record = BlockRecord(record.steps)
        walk_blocks([("W", 0)], update, record, backward=False)
    assert seeds == [solvers.SEED_INIT, 4.0, solvers.SEED_FLOOR] == [1.0, 4.0, 1e-8]


class TestUpdateB:
    def test_zero_grad_unchanged(self):
        b = np.array([[1.0], [2.0]])
        out = update_b(b, np.zeros_like(b), 0, 3, nu=2.0, rho=5.0, n_samples=1)
        assert np.array_equal(out, b)

    def test_hidden_layer_divisor_nu(self):
        out = update_b(np.array([[0.0]]), np.array([[4.0]]), 0, 2, nu=2.0, rho=7.0, n_samples=1)
        assert out[0, 0] == pytest.approx(-2.0)

    def test_last_layer_divisor_rho(self):
        out = update_b(np.array([[0.0]]), np.array([[4.0]]), 1, 2, nu=2.0, rho=8.0, n_samples=1)
        assert out[0, 0] == pytest.approx(-0.5)

    def test_matches_grid_minimum(self):
        # U(b) = phi(anchor) + g*(b-b0) + (d/2)(b-b0)^2 with d the layer divisor
        rng = Rng(1)
        for layer, n_layers in ((0, 2), (1, 2)):
            nu, rho = 3.0, 1.5
            b0 = float(rng.normal(0, 1, ()))
            g = float(rng.normal(0, 2, ()))
            d = nu if layer < n_layers - 1 else rho
            out = update_b(np.array([[b0]]), np.array([[g]]), layer, n_layers, nu, rho, n_samples=1)
            grid = b0 + np.linspace(-5, 5, 20001)
            model = g * (grid - b0) + 0.5 * d * (grid - b0) ** 2
            best = grid[np.argmin(model)]
            assert abs(out[0, 0] - best) < 1e-3
            model_at = g * (out[0, 0] - b0) + 0.5 * d * (out[0, 0] - b0) ** 2
            assert model_at <= np.min(model) + 1e-4


def _relu_obj(z, m, t, w_lin, w_act):
    return w_lin * (z - m) ** 2 + w_act * (t - np.maximum(z, 0.0)) ** 2


def two_branch_z_relu(m, t, w_lin, w_act):
    """The ReLU z-solve by evaluating both branch objectives: the lower
    wins, ties go to the nonnegative branch.  Returns (z, obj_neg, obj_pos)."""
    z_neg = np.minimum(m, 0.0)
    obj_neg = w_lin * (z_neg - m) ** 2 + w_act * t**2
    z_pos = np.maximum((w_lin * m + w_act * t) / (w_lin + w_act), 0.0)
    obj_pos = w_lin * (z_pos - m) ** 2 + w_act * (t - z_pos) ** 2
    return np.where(obj_neg < obj_pos, z_neg, z_pos), obj_neg, obj_pos


class TestSolveZRelu:
    @pytest.mark.parametrize("w_lin,w_act", [(0.5, 0.5), (1.0, 0.25), (0.1, 3.0)])
    @pytest.mark.parametrize("where", ["random", "boundary"])
    def test_matches_two_branch_rule(self, w_lin, w_act, where):
        """The sign rule m + kappa t < 0 picks the branch the two objectives
        pick, bit for bit, except where those objectives tie to 1e-12."""
        rng = Rng(21)
        t = rng.normal(0.0, 2.0, (40, 500))
        if where == "random":
            m = rng.normal(0.0, 2.0, t.shape)
        else:  # on m = -kappa t, and a few ulps either side of it
            kappa = np.sqrt(1.0 + w_act / w_lin) - 1.0
            ulps = rng.integers(-3, 4, t.shape)
            m = -kappa * t * (1.0 + ulps * np.finfo(float).eps)
        z = solve_z_relu(m, t, w_lin, w_act)
        ref, obj_neg, obj_pos = two_branch_z_relu(m, t, w_lin, w_act)
        differ = z.view(np.uint64) != ref.view(np.uint64)
        gap = np.abs(obj_neg - obj_pos)[differ]
        assert np.all(gap <= 1e-12 * np.maximum(obj_neg, obj_pos)[differ])
        if where == "random":
            assert not differ.any()

    def test_consistent_point(self):
        z = solve_z_relu(np.array([[2.0]]), np.array([[2.0]]), 1.0, 1.0)
        assert z[0, 0] == pytest.approx(2.0)
        assert _relu_obj(z[0, 0], 2.0, 2.0, 1.0, 1.0) == pytest.approx(0.0)

    def test_negative_m_small_positive_target(self):
        z = solve_z_relu(np.array([[-1.0]]), np.array([[0.5]]), 1.0, 1.0)
        assert z[0, 0] == pytest.approx(-1.0)

    def test_negative_target(self):
        z = solve_z_relu(np.array([[-1.0]]), np.array([[-0.5]]), 1.0, 1.0)
        assert z[0, 0] == pytest.approx(-1.0)

    def test_beats_grid_on_random_instances(self):
        rng = Rng(2)
        grid = np.linspace(-5.0, 5.0, 10001)
        m = rng.normal(0, 2, (1, 1000))
        t = rng.normal(0, 2, (1, 1000))
        w_lin = 0.5
        w_act = 0.5
        z = solve_z_relu(m, t, w_lin, w_act)
        for i in range(1000):
            ours = _relu_obj(z[0, i], m[0, i], t[0, i], w_lin, w_act)
            best = np.min(_relu_obj(grid, m[0, i], t[0, i], w_lin, w_act))
            assert ours <= best + 1e-4


class TestProxRegularizer:
    def test_none_identity(self):
        # an inactive regularizer is off: the W update takes no prox step and
        # the objective holds no term of it
        for reg in (Regularizer(), Regularizer("l1", 0.0)):
            assert not reg.active
            assert reg.value(np.array([[3.0, -0.5]])) == 0.0
        assert Regularizer("l1", 0.5).active and Regularizer("l2", 0.5).active

    def test_l1_soft_threshold(self):
        out = Regularizer("l1", 1.0).prox(np.array([[3.0, -0.5]]), 1.0)
        assert np.allclose(out, [[2.0, 0.0]])

    def test_l2_matches_grid(self):
        lam, step = 0.7, 2.0
        v = 1.3
        out = Regularizer("l2", lam).prox(np.array([[v]]), step)
        grid = np.linspace(-5, 5, 200001)
        obj = lam * grid**2 + 0.5 * step * (grid - v) ** 2
        assert abs(out[0, 0] - grid[np.argmin(obj)]) < 1e-4


def squared_fista(w_aff, u, rho, y, anchor):
    """FISTA on the squared-risk output subproblem, which ``solve_z_last``
    solves in closed form instead: the same solve with the minimizer
    dropped from the risk."""
    return solve_z_last(w_aff, u, rho, replace(mean_risk("squared", y), minimizer=None), anchor)


def solve(w_aff, u, rho, y, kind, anchor):
    """``solve_z_last`` under the mean risk of ``kind`` over the columns of y."""
    return solve_z_last(w_aff, u, rho, mean_risk(kind, y), anchor)


def fista_solve(w_aff, u, rho, y, kind, anchor):
    """``solve`` by FISTA: cross-entropy's Newton direction dropped from the
    risk, as ``squared_fista`` drops the squared risk's minimizer."""
    return solve_z_last(w_aff, u, rho, replace(mean_risk(kind, y), newton=None), anchor)


class TestFista:
    def test_matches_closed_form_squared(self):
        rng = Rng(5)
        y = rng.normal(0, 1, (3, 4))
        w_aff = rng.normal(0, 1, (3, 4))
        u = rng.normal(0, 1, (3, 4))
        rho = 2.0
        res = squared_fista(w_aff, u, rho, y, anchor=w_aff.copy())
        closed = mean_risk("squared", y).minimizer(w_aff, u, rho)
        assert np.max(np.abs(res.z - closed)) < 1e-6

    def test_closed_form_dispatch(self):
        rng = Rng(6)
        y = rng.normal(0, 1, (3, 4))
        w_aff = rng.normal(0, 1, (3, 4))
        u = rng.normal(0, 1, (3, 4))
        res = solve(w_aff, u, 2.0, y, "squared", anchor=w_aff.copy())
        assert (res.iterations, res.converged) == (0, True)
        m = y.shape[1]
        # closed form: gradient (z-y)/m + u + rho (z - w_aff) = 0
        g = (res.z - y) / m + u + 2.0 * (res.z - w_aff)
        assert np.max(np.abs(g)) < 1e-12

    def test_stationary_anchor(self):
        rng = Rng(7)
        w_aff = rng.normal(0, 1, (3, 4))
        y = np.zeros((3, 4))
        y[0] = 1.0
        # pick u so the FOC holds exactly at z = w_aff
        m = y.shape[1]
        u = -(softmax(w_aff) - y) / m
        res = solve(w_aff, u, 1.0, y, "cross_entropy", anchor=w_aff.copy())
        assert np.max(np.abs(res.z - w_aff)) < 1e-7

    def test_cross_entropy_foc_residual(self):
        rng = Rng(8)
        for _ in range(5):
            w_aff = rng.normal(0, 1, (3, 6))
            u = 0.1 * rng.normal(0, 1, (3, 6))
            y = np.zeros((3, 6))
            y[rng.integers(0, 3, 6), np.arange(6)] = 1.0
            rho = 1.0
            res = solve(w_aff, u, rho, y, "cross_entropy", anchor=w_aff.copy())
            m = y.shape[1]
            foc = (softmax(res.z) - y) / m + u + rho * (res.z - w_aff)
            assert np.max(np.abs(foc)) < 1e-6

    def test_cross_entropy_anchor_shape_checked(self):
        # a (1, m) anchor would broadcast against (n, m) labels
        y = np.eye(3)[:, [0, 1, 2, 0]]
        with pytest.raises(ShapeError):
            solve(np.zeros((3, 4)), np.zeros((3, 4)), 1.0, y, "cross_entropy",
                  anchor=np.zeros((1, 4)))

    def test_monotone_objective(self):
        rng = Rng(9)
        target = rng.normal(0, 1, (4, 4))
        vals = []

        def grad_fn(z):
            return z - target

        def obj_fn(z):
            v = 0.5 * l2sq(z - target)
            vals.append(v)
            return v

        fista_minimize(grad_fn, obj_fn, rng.normal(0, 3, (4, 4)), step=0.5,
                       tol=1e-10, max_iter=50)
        best = np.inf
        # best-seen objective never increases (monotone variant keeps the best iterate)
        for v in vals:
            best = min(best, v)
        assert vals[-1] <= vals[0]


# ---------------------------------------------------------------------------
# The output solve against a reference copy of the plain FISTA loop
# ---------------------------------------------------------------------------

def reference_fista(grad_fn, obj_fn, anchor, step, tol, max_iter):
    """The plain monotone FISTA loop with gradient restart: the kept
    iterate's gradient is taken afresh every iteration and again for the
    restart test, so each iteration evaluates the risk at up to four points.
    The momentum restarts after a rejected step and after an accepted step
    whose new gradient has a positive inner product with the step; a
    rejected step taken from the kept iterate ends the solve unconverged.
    Returns the result, the number of rejected steps and the number of
    restarts after accepted steps."""
    x = anchor.copy()
    x_obj = obj_fn(x)
    y = x
    t = 1.0
    rejected = restarted = 0
    for it in range(1, max_iter + 1):
        g = grad_fn(x)
        if float(np.max(np.abs(g))) <= tol:
            return FistaResult(z=x, iterations=it - 1, converged=True), rejected, restarted
        cand = y - step * grad_fn(y)
        cand_obj = obj_fn(cand)
        t_next = 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * t * t))
        if cand_obj <= x_obj:
            x_new, x_new_obj = cand, cand_obj
            restart = float(np.vdot(grad_fn(x_new), x_new - x)) > 0.0
            restarted += restart
        else:
            x_new, x_new_obj = x, x_obj
            rejected += 1
            if y is x:
                return FistaResult(z=x, iterations=it, converged=False), rejected, restarted
            restart = True
        if restart:
            y, t_next = x_new, 1.0
        elif t == 1.0:  # no momentum yet: the extrapolation point is the kept iterate
            y = x_new
        else:
            y = x_new + (t / t_next) * (cand - x_new) + ((t - 1.0) / t_next) * (x_new - x)
        x, x_obj, t = x_new, x_new_obj, t_next
    g = grad_fn(x)
    converged = float(np.max(np.abs(g))) <= tol
    return FistaResult(z=x, iterations=max_iter, converged=converged), rejected, restarted


def reference_oracles(w_aff, u, rho, y, kind):
    """The output subproblem's gradient and objective, unmemoized and
    written out in full."""
    m = y.shape[1]

    def risk_at(z):
        if kind == "squared":
            return 0.5 * l2sq(z - y) / m
        return float(-np.sum(y * _log_softmax(z)) / m)

    def grad_fn(z):
        r = (z - y) / m if kind == "squared" else (np.exp(_log_softmax(z)) - y) / m
        return r + u + rho * (z - w_aff)

    def obj_fn(z):
        d = z - w_aff
        return risk_at(z) + float(np.vdot(u, d)) + 0.5 * rho * l2sq(d)

    return grad_fn, obj_fn


def reference_solve(w_aff, u, rho, y, kind, anchor):
    """The FISTA output solve with the reference oracles."""
    lipschitz = 1.0 / y.shape[1] if kind == "squared" else 0.5 / y.shape[1]
    return reference_fista(*reference_oracles(w_aff, u, rho, y, kind), anchor,
                           1.0 / (lipschitz + rho), FISTA_TOL, FISTA_MAX_ITER)


def output_problem(seed, rho, kind="cross_entropy", scale=3.0, n=5, m=40):
    rng = Rng(seed)
    w_aff = scale * rng.normal(0, 1, (n, m))
    u = 0.1 * rng.normal(0, 1, (n, m))
    if kind == "squared":
        y = rng.normal(0, 1, (n, m))
    else:
        y = np.zeros((n, m))
        y[rng.integers(0, n, m), np.arange(m)] = 1.0
    anchor = w_aff + rng.normal(0, 1, (n, m))
    return w_aff, u, rho, y, kind, anchor


OUTPUT_PROBLEMS = {
    "rejected-steps": output_problem(27, 1e-2, n=3, m=10),  # 4 of 38 steps rejected
    "gradient-restart": output_problem(0, 1.0),  # 2 of 6 accepted steps restart
    "all-accepted": output_problem(1, 1e-6),  # no step rejected or restarted, stops at the cap
    "squared": output_problem(2, 2.0, kind="squared"),  # solved by FISTA, not in closed form
}


@pytest.mark.parametrize("name", OUTPUT_PROBLEMS)
def test_output_solve_matches_reference_loop(name):
    w_aff, u, rho, y, kind, anchor = OUTPUT_PROBLEMS[name]
    anchor_bytes = anchor.tobytes()
    ref, rejected, restarted = reference_solve(w_aff, u, rho, y, kind, anchor)
    if kind == "squared":
        res = squared_fista(w_aff, u, rho, y, anchor)
    else:
        res = fista_solve(w_aff, u, rho, y, kind, anchor)
    assert res.z.tobytes() == ref.z.tobytes()
    assert (res.iterations, res.converged) == (ref.iterations, ref.converged)
    assert res.iterations > 0
    assert anchor.tobytes() == anchor_bytes
    if name != "squared":
        assert (rejected > 0) == (name == "rejected-steps")
        assert (restarted > 0) == (name == "gradient-restart")


def test_output_solve_stops_at_rejected_plain_step():
    """Here a plain step from the kept iterate is rejected while the gradient
    is still above tolerance; every later iteration would form the same
    candidate and reject it again, so the solve ends there, unconverged."""
    problem = output_problem(28, 10.0)
    res = fista_solve(*problem)
    ref, _, _ = reference_solve(*problem)
    assert res.z.tobytes() == ref.z.tobytes()
    assert (res.iterations, res.converged) == (ref.iterations, False)
    assert res.iterations < FISTA_MAX_ITER


def gcn_output_problem():
    """A GCN state one iteration into training (nonzero dual) and the
    propagations its sweep moved there."""
    graph = make_sbm_graph(60, rng=Rng(1))
    cfg = GcnConfig(hidden_dims=(8,), rho=1.0, mu=1.0, epochs=1, seed=0)
    state, props = gcn.gcn_forward_init(graph, (2, 8, 2), Rng(0), cfg.rho, cfg.mu)
    risk = gcn.masked_ce(graph.labels, graph.train_mask)
    state = gcn.gcn_iteration(state, risk, BlockRecord(), props)[0]
    return graph, state, props


def solve_gcn_output(monkeypatch, graph, state, props):
    """Runs ``gcn._update_Z_last`` on a copy of ``state``; returns the copy
    and the FISTA result."""
    results = []

    def spy(*args):
        results.append(fista_minimize(*args))
        return results[-1]

    monkeypatch.setattr(solvers, "fista_minimize", spy)
    work = state.copy()
    gcn._update_Z_last(work, props, gcn.masked_ce(graph.labels, graph.train_mask))
    (res,) = results
    return work, res


def test_gcn_output_solve_matches_reference_loop(monkeypatch):
    graph, state, props = gcn_output_problem()
    anchor = state.Z[-1]
    anchor_bytes = anchor.tobytes()
    w_aff = props.m[-1]  # the cached output propagation is the affine target
    mask, labels = graph.train_mask, graph.labels
    n_train = int(np.sum(mask))

    def grad_fn(z):
        g = np.zeros_like(z)
        g[mask] = (np.exp(_log_softmax(z[mask].T).T) - labels[mask]) / n_train
        return g + state.U + state.rho * (z - w_aff)

    def obj_fn(z):
        d = z - w_aff
        value = float(-np.sum(labels[mask] * _log_softmax(z[mask].T).T) / n_train)
        return value + float(np.vdot(state.U, d)) + 0.5 * state.rho * l2sq(d)

    step = 1.0 / (0.5 / n_train + state.rho)
    ref, _, _ = reference_fista(grad_fn, obj_fn, anchor, step, FISTA_TOL, FISTA_MAX_ITER)
    work, res = solve_gcn_output(monkeypatch, graph, state, props)
    assert work.Z[-1].tobytes() == ref.z.tobytes()
    assert (res.iterations, res.converged) == (ref.iterations, ref.converged)
    assert res.iterations > 0
    assert anchor.tobytes() == anchor_bytes


def counting(monkeypatch, module):
    """Counts calls of ``module._log_softmax``."""
    calls = []
    real = module._log_softmax

    def counted(z):
        calls.append(1)
        return real(z)

    monkeypatch.setattr(module, "_log_softmax", counted)
    return calls


@pytest.mark.parametrize("name", ["rejected-steps", "gradient-restart", "all-accepted"])
def test_output_solve_log_softmax_count(monkeypatch, name):
    """At most two log-softmaxes per iteration plus two; the plain loop
    takes up to four per iteration plus two."""
    calls = counting(monkeypatch, objective)
    res = fista_solve(*OUTPUT_PROBLEMS[name])
    assert res.iterations > 0
    assert len(calls) <= 2 * res.iterations + 2


def test_gcn_output_solve_log_softmax_count(monkeypatch):
    """One log-softmax at the anchor, one per candidate and one per
    extrapolated point.  This solve's steps are a plain step from the
    anchor, one at t = 1, whose extrapolation point is the kept iterate
    itself, and one extrapolated step: five in all."""
    graph, state, props = gcn_output_problem()
    calls = counting(monkeypatch, objective)
    _, res = solve_gcn_output(monkeypatch, graph, state, props)
    assert (res.iterations, len(calls)) == (3, 5)


@pytest.mark.parametrize("method", ["newton", "fista"])
def test_output_solve_starts_at_the_anchor(monkeypatch, method):
    """Both iterative solves start from the anchor itself, not a copy, so a
    risk whose memo holds the anchor forms no log-softmax for it."""
    problem = OUTPUT_PROBLEMS["gradient-restart"]
    w_aff, u, rho, y, kind, anchor = problem
    counts = []
    for warm in (False, True):
        with monkeypatch.context() as patch:
            calls = counting(patch, objective)
            risk = mean_risk(kind, y)
            if method == "fista":
                risk = replace(risk, newton=None)
            if warm:
                risk.value(anchor)
                calls.clear()
            solve_z_last(w_aff, u, rho, risk, anchor)
        counts.append(len(calls))
    assert counts[1] == counts[0] - 1


# ---------------------------------------------------------------------------
# The Newton output solve of the mean cross-entropy
# ---------------------------------------------------------------------------

# seeds 0-29 at five rho, the three named cross-entropy problems and the one
# whose FISTA solve ends at a rejected plain step
NEWTON_PROBLEMS = [output_problem(seed, rho) for seed in range(30)
                   for rho in (1e-3, 1e-2, 1e-1, 1.0, 10.0)]
NEWTON_PROBLEMS += [p for p in OUTPUT_PROBLEMS.values() if p[4] == "cross_entropy"]
NEWTON_PROBLEMS += [output_problem(28, 10.0)]


def test_newton_output_solve_converges_on_the_grid():
    """Every solve converges, to the gradient tolerance by the reference
    oracles, at an objective no higher than the anchor's, and leaves its
    inputs unchanged (FISTA leaves 18 of these 154 solves unconverged)."""
    assert len(NEWTON_PROBLEMS) == 154
    for problem in NEWTON_PROBLEMS:
        before = [a.tobytes() for a in problem if isinstance(a, np.ndarray)]
        res = solve(*problem)
        grad_fn, obj_fn = reference_oracles(*problem[:5])
        assert res.converged
        assert float(np.max(np.abs(grad_fn(res.z)))) <= FISTA_TOL
        assert obj_fn(res.z) <= obj_fn(problem[5])
        assert [a.tobytes() for a in problem if isinstance(a, np.ndarray)] == before


@pytest.mark.parametrize("rho", [1e-6, 1e-2, 10.0])
def test_newton_direction_solves_the_hessian(rho):
    """(Hessian of R + rho I) d = g, column by column, with the Hessian
    (diag(p) - p p^T)/m of the mean cross-entropy written out densely."""
    rng = Rng(3)
    n, m = 5, 7
    z = 3.0 * rng.normal(0, 1, (n, m))
    y = np.zeros((n, m))
    y[rng.integers(0, n, m), np.arange(m)] = 1.0
    g = rng.normal(0, 1, (n, m))
    d = mean_risk("cross_entropy", y).newton(z, g, rho)
    p = softmax(z)
    for j in range(m):
        hess = (np.diag(p[:, j]) - np.outer(p[:, j], p[:, j])) / m + rho * np.eye(n)
        assert np.max(np.abs(hess @ d[:, j] - g[:, j])) <= 1e-9 * np.max(np.abs(g[:, j]))


def test_newton_output_solve_log_softmax_count(monkeypatch):
    """Every log-softmax of a Newton solve is of a point the objective
    evaluates: the gradient and the direction at a kept point reuse it."""
    problem = OUTPUT_PROBLEMS["rejected-steps"]
    w_aff, u, rho, y, kind, anchor = problem
    calls = counting(monkeypatch, objective)
    risk = mean_risk(kind, y)
    points = []
    value = risk.value
    risk = replace(risk, value=lambda z: (points.append(z), value(z))[1])
    res = solve_z_last(w_aff, u, rho, risk, anchor)
    assert res.converged and res.iterations > 0
    assert len(calls) == len(points) >= res.iterations + 1


def test_newton_exact_on_a_quadratic():
    """On a quadratic the full step lands on the minimizer."""
    a = np.array([[3.0, 1.0], [1.0, 2.0]])
    b = np.array([[1.0], [-2.0]])
    res = newton_minimize(lambda x: a @ x - b, lambda x: (0.5 * x.T @ a @ x - b.T @ x).item(),
                          lambda x, g: np.linalg.solve(a, g), np.zeros((2, 1)), 1e-12, 10)
    assert (res.iterations, res.converged) == (1, True)
    assert np.allclose(res.z, np.linalg.solve(a, b), rtol=1e-14, atol=0.0)


def test_newton_ends_unconverged_when_no_halving_lowers():
    """Along an ascent direction no halving of the step lowers the
    objective: the solve ends at the anchor, unconverged, after MAX_TRIALS
    candidates."""
    anchor = np.array([[1.0, -2.0]])
    objs = []

    def obj_fn(x):
        objs.append(x)
        return 0.5 * l2sq(x)

    res = newton_minimize(lambda x: x, obj_fn, lambda x, g: -g, anchor, 1e-8, FISTA_MAX_ITER)
    assert (res.iterations, res.converged) == (1, False)
    assert res.z is anchor
    assert len(objs) == 1 + solvers.MAX_TRIALS
