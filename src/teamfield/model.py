"""Game definition: teams of homogeneous agents with population-coupled
transitions and costs.

A game has K teams. Team k holds ``population`` identical agents moving on
the finite state set ``state_labels`` with actions ``action_labels``. Both
the one-step transition kernel and the per-stage cost are affine in the
joint mean field z = (z^(1), ..., z^(K)) (the stack of per-team state
occupancy distributions):

    P(s'|s, a, z) = transition_base[s, a, s'] + transition_coupling[s, a, s', :] @ flat(z)
    c_t(s, a, z)  = cost_base[t, s, a]        + cost_coupling[t, s, a, :]        @ flat(z)

where flat(z) concatenates the per-team occupancy vectors (length
``coupling_dim``). Affinity buys three things: validity on the whole
product of simplices can be checked at its finitely many vertices, the
coefficients yield closed-form Lipschitz bounds w.r.t. the transport
metric, and the infinite-population flow stays exact.

``transition_matrix`` and ``cost_matrix`` evaluate the maps by one einsum
each, at one flat point or any batch, bitwise alike for a point either
way; other modules call them (and ``_flow``) and never read coefficients.
The kernels built on them (``_flow`` here, ``counts._mixture_rows`` and
``stage_game._cost_tables``) call each once per batch (``cost_matrix``
once per stage) and sum their terms by elementwise ufuncs in a fixed
order, so they are batch-invariant too.

All validation failures raise SpecValidationError naming the first
violated invariant and its location.
"""

from __future__ import annotations

import json
import operator
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import SpecParseError, SpecValidationError

STOCH_TOL = 1e-12     # stochasticity / normalization checks
SIMPLEX_TOL = 1e-9    # simplex membership of mean fields and stage-game mixtures


def _count(value, name: str, least=1) -> int:
    """``value`` as an int of at least ``least`` (any sign when None): any
    integer type, NumPy's too, never a bool, float, str or None."""
    try:
        if isinstance(value, bool):     # JSON true is not a count
            raise TypeError
        n = operator.index(value)
    except TypeError:
        raise SpecValidationError("%s must be an integer, got %r" % (name, value)) from None
    if least is not None and n < least:
        raise SpecValidationError("%s must be >= %d, got %d" % (name, least, n))
    return n


def _freeze(a):
    a = np.ascontiguousarray(a)
    a.setflags(write=False)
    return a


@dataclass(frozen=True, eq=False)
class TeamModel:
    """One team: labels, population, initial law, metric, dynamics, costs.

    Array shapes (S = len(state_labels), A = len(action_labels), T = horizon,
    D = total coupling dimension of the enclosing GameSpec):
      initial_law (S,), state_metric (S, S), transition_base (S, A, S),
      transition_coupling (S, A, S, D), cost_base (T, S, A),
      cost_coupling (T, S, A, D).
    """

    team_id: int
    state_labels: tuple
    action_labels: tuple
    population: int
    initial_law: np.ndarray = field(repr=False)
    state_metric: np.ndarray = field(repr=False)
    transition_base: np.ndarray = field(repr=False)
    transition_coupling: np.ndarray = field(repr=False)
    cost_base: np.ndarray = field(repr=False)
    cost_coupling: np.ndarray = field(repr=False)

    def __post_init__(self):
        object.__setattr__(self, "state_labels", tuple(str(x) for x in self.state_labels))
        object.__setattr__(self, "action_labels", tuple(str(x) for x in self.action_labels))
        for name in ("initial_law", "state_metric", "transition_base",
                     "transition_coupling", "cost_base", "cost_coupling"):
            object.__setattr__(self, name, _freeze(np.asarray(getattr(self, name), dtype=float)))
        object.__setattr__(self, "population",
                           _count(self.population, "team %d: population" % self.team_id))
        self._check_local()

    @property
    def n_states(self):
        return len(self.state_labels)

    @property
    def n_actions(self):
        return len(self.action_labels)

    def _check_local(self):
        k = self.team_id
        S, A = self.n_states, self.n_actions
        if S < 1 or A < 1:
            raise SpecValidationError("team %d: needs at least one state and one action" % k)
        if self.initial_law.shape != (S,):
            raise SpecValidationError("team %d: initial_law has shape %s, expected (%d,)"
                                      % (k, self.initial_law.shape, S))
        if np.any(self.initial_law < 0):
            raise SpecValidationError("team %d: initial_law has a negative entry" % k)
        if abs(self.initial_law.sum() - 1.0) > STOCH_TOL:
            raise SpecValidationError("team %d: initial_law sums to %.17g, expected 1"
                                      % (k, self.initial_law.sum()))
        self._check_metric()
        if self.transition_base.shape != (S, A, S):
            raise SpecValidationError("team %d: transition_base has shape %s, expected %s"
                                      % (k, self.transition_base.shape, (S, A, S)))
        if np.any(self.transition_base < -STOCH_TOL):
            s, a, sp = np.argwhere(self.transition_base < -STOCH_TOL)[0]
            raise SpecValidationError("team %d: transition_base negative at (s=%d, a=%d, s'=%d)"
                                      % (k, s, a, sp))
        rowsums = self.transition_base.sum(axis=2)
        bad = np.argwhere(np.abs(rowsums - 1.0) > STOCH_TOL)
        if bad.size:
            s, a = bad[0]
            raise SpecValidationError(
                "team %d: transition_base row sum is %.17g at (s=%d, a=%d), expected 1"
                % (k, rowsums[s, a], s, a))

    def _check_metric(self):
        k, S = self.team_id, self.n_states
        d = self.state_metric
        if d.shape != (S, S):
            raise SpecValidationError("team %d: state_metric has shape %s, expected (%d, %d)"
                                      % (k, d.shape, S, S))
        if np.any(np.diag(d) != 0):
            raise SpecValidationError("team %d: state_metric diagonal must be zero" % k)
        if np.any(d != d.T):
            raise SpecValidationError("team %d: state_metric must be symmetric" % k)
        off = d[~np.eye(S, dtype=bool)]
        if off.size and np.any(off <= 0):
            raise SpecValidationError("team %d: state_metric must be positive off the diagonal" % k)
        # exhaustive triangle inequality
        for i in range(S):
            for j in range(S):
                if np.any(d[i, :] + d[:, j] < d[i, j] - STOCH_TOL):
                    raise SpecValidationError(
                        "team %d: state_metric violates the triangle inequality at (%d, %d)"
                        % (k, i, j))


@dataclass(frozen=True, eq=False)
class GameSpec:
    """Validated game: K teams plus horizon and master seed.

    Immutable after construction; every evaluation operation is pure, so a
    GameSpec is safe to share across worker processes.
    """

    teams: tuple
    horizon: int
    seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "teams", tuple(self.teams))
        object.__setattr__(self, "horizon", _count(self.horizon, "horizon"))
        object.__setattr__(self, "seed", _count(self.seed, "seed", least=None))
        if len(self.teams) < 1:
            raise SpecValidationError("spec needs at least one team")
        for i, tm in enumerate(self.teams):
            if tm.team_id != i:
                raise SpecValidationError("team at position %d carries team_id %d"
                                          % (i, tm.team_id))
        self._check_couplings()

    @property
    def n_teams(self):
        return len(self.teams)

    @property
    def coupling_dim(self):
        return sum(t.n_states for t in self.teams)

    def block(self, k):
        """Slice of flat(z) belonging to team k."""
        off = sum(t.n_states for t in self.teams[:k])
        return slice(off, off + self.teams[k].n_states)

    def _check_couplings(self):
        D, T = self.coupling_dim, self.horizon
        for tm in self.teams:
            k, S, A = tm.team_id, tm.n_states, tm.n_actions
            if tm.transition_coupling.shape != (S, A, S, D):
                raise SpecValidationError(
                    "team %d: transition_coupling has shape %s, expected %s "
                    "(coupling axes must cover every team's states)"
                    % (k, tm.transition_coupling.shape, (S, A, S, D)))
            if tm.cost_base.shape != (T, S, A):
                raise SpecValidationError("team %d: cost_base has shape %s, expected %s"
                                          % (k, tm.cost_base.shape, (T, S, A)))
            if tm.cost_coupling.shape != (T, S, A, D):
                raise SpecValidationError("team %d: cost_coupling has shape %s, expected %s"
                                          % (k, tm.cost_coupling.shape, (T, S, A, D)))
            colsums = tm.transition_coupling.sum(axis=2)   # (S, A, D)
            bad = np.argwhere(np.abs(colsums) > STOCH_TOL)
            if bad.size:
                s, a, j = bad[0]
                raise SpecValidationError(
                    "team %d: transition_coupling row sum is %.17g at (s=%d, a=%d, "
                    "coupling index %d), expected 0 (mass preservation)"
                    % (k, colsums[s, a, j], s, a, j))
            self._check_vertices(tm)

    def _check_vertices(self, tm):
        # The kernel is affine in z, so P >= 0 on the whole simplex product
        # iff it holds at every vertex (each team's mass on one state). The
        # minimum over vertices separates across team blocks.
        k = tm.team_id
        low = tm.transition_base.copy()
        for kp in range(self.n_teams):
            blk = tm.transition_coupling[..., self.block(kp)]
            low += blk.min(axis=3)
        bad = np.argwhere(low < -STOCH_TOL)
        if bad.size:
            s, a, sp = bad[0]
            raise SpecValidationError(
                "team %d: transition nonnegativity at vertex fails for "
                "(s=%d, a=%d, s'=%d): minimum over vertices is %.17g"
                % (k, s, a, sp, low[s, a, sp]))


def flatten_mean_field(spec: GameSpec, z) -> np.ndarray:
    """Concatenate per-team occupancy vectors and check simplex membership.

    Accepts a sequence of per-team vectors or any object with a
    ``per_team`` attribute holding one.
    """
    per_team = getattr(z, "per_team", z)
    return np.concatenate(_per_team_simplex(per_team, [tm.n_states for tm in spec.teams],
                                            "mean field"))


def _per_team_simplex(vectors, sizes, what: str) -> tuple:
    """``vectors`` as one float vector per team, team k's of length
    sizes[k], with entries of at least -SIMPLEX_TOL summing to 1 within
    SIMPLEX_TOL (a NaN fails, an empty vector too); anything else raises
    SpecValidationError naming ``what``."""
    if len(vectors) != len(sizes):
        raise SpecValidationError("%s has %d teams, spec has %d" % (what, len(vectors), len(sizes)))
    out = tuple(np.asarray(v, dtype=float) for v in vectors)
    for k, (v, n) in enumerate(zip(out, sizes)):
        if v.shape != (n,):
            raise SpecValidationError("%s for team %d has shape %s, expected (%d,)"
                                      % (what, k, v.shape, n))
        if not (abs(v.sum() - 1.0) <= SIMPLEX_TOL and v.min() >= -SIMPLEX_TOL):
            raise SpecValidationError("%s for team %d is not on the simplex (sum %.17g)"
                                      % (what, k, v.sum()))
    return out


def transition_matrix(spec: GameSpec, k: int, zf: np.ndarray) -> np.ndarray:
    """P(s'|s, a, z) of team k at flat points zf (..., D): a (..., S, A, S)
    array. One einsum serves one point and any batch, and a point's rows
    are bitwise the same alone or inside a batch, so the simulator's
    tables, the per-episode process and the solver's kernels share them."""
    tm = spec.teams[k]
    return np.maximum(tm.transition_base
                      + np.einsum("satd,...d->...sat", tm.transition_coupling, zf), 0.0)


def cost_matrix(spec: GameSpec, k: int, t: int, zf: np.ndarray) -> np.ndarray:
    """c_t(s, a, z) of team k at flat points zf (..., D): a (..., S, A)
    array, bitwise the same for a point alone or inside a batch."""
    tm = spec.teams[k]
    return tm.cost_base[t] + np.einsum("sad,...d->...sa", tm.cost_coupling[t], zf)


def _team_rows(spec: GameSpec, k: int, R: np.ndarray) -> np.ndarray:
    """Team k's prescription rows R (m, S, A), checked against its shape."""
    tm = spec.teams[k]
    if R.shape[1:] != (tm.n_states, tm.n_actions):
        raise SpecValidationError("prescription shape %s does not match team %d"
                                  % (R.shape[1:], k))
    return R


def _flow(spec: GameSpec, Z, R) -> list:
    """The deterministic mean-field update (``limit.flow``) batched over P
    joint points and every prescription of each team: (P, m_k, S_k) images
    from occupancies Z[k] (P, S_k) and prescription rows R[k] (m_k, S_k, A_k).

    Each image sums the terms (z(s) gamma(a|s)) P(.|s, a, z) in a fixed
    order, actions fastest, then states, and divides by its entries added
    in order, all by elementwise ufuncs on an (m_k, S_k, P) array with the
    points on the long inner axis; a team's images are a view of it. A
    point or menu item has the same bits alone or inside any batch, no
    temporary is larger than the images, and the result agrees with the
    einsum form (``tests/oracles.py``) within 1e-12."""
    zf = np.concatenate(Z, axis=1)
    out = []
    for k in range(spec.n_teams):
        rows, P = _team_rows(spec, k, R[k]), transition_matrix(spec, k, zf)
        nxt = np.zeros((len(rows), P.shape[-1], len(zf)))
        w, term = np.empty((len(rows), 1, len(zf))), np.empty_like(nxt)
        for z, r_s, P_s in zip(Z[k].T, rows.transpose(1, 2, 0)[..., None, None],
                               P.transpose(1, 2, 3, 0)):
            for r, P_sa in zip(r_s, P_s):
                nxt += np.multiply(np.multiply(r, z, out=w), P_sa, out=term)
        total = nxt[:, 0].copy()
        for t in range(1, nxt.shape[1]):
            total += nxt[:, t]
        nxt /= total[:, None]
        out.append(nxt.transpose(2, 0, 1))
    return out


# ---------------------------------------------------------------------------
# document loading

def _floats(value, where: str) -> np.ndarray:
    """``value`` as a float array; SpecParseError naming ``where`` if it is not one."""
    try:
        return np.asarray(value, dtype=float)
    except (TypeError, ValueError) as exc:
        raise SpecParseError("%s must be an array of numbers (%s)" % (where, exc)) from None


def _labels(values, where: str) -> tuple:
    """``values`` as string labels; SpecParseError naming ``where`` if one repeats."""
    labels = tuple(str(x) for x in values)
    repeated = [x for i, x in enumerate(labels) if x in labels[:i]]
    if repeated:
        raise SpecParseError("%s repeats the label %r" % (where, repeated[0]))
    return labels


def _dense_coupling(records, shape, n_states_per_team, offsets, where, timed):
    """Expand sparse coupling records into the dense array."""
    if not isinstance(records, list):
        raise SpecParseError("%s coupling must be a list of records" % where)
    out = np.zeros(shape)
    for i, rec in enumerate(records):
        loc = "%s coupling record %d" % (where, i)
        try:
            s = int(rec["s"]); a = int(rec["a"])
            kp = int(rec["team"]); sig = int(rec["sigma"])
            val = float(rec["value"])
            sp = int(rec["s'"]) if not timed else None
            t = int(rec["t"]) if timed else None
        except (KeyError, TypeError, ValueError) as exc:
            raise SpecValidationError("%s: malformed (%s)" % (loc, exc)) from exc
        if not 0 <= kp < len(n_states_per_team):
            raise SpecValidationError("%s: team %d out of range" % (loc, kp))
        if not 0 <= sig < n_states_per_team[kp]:
            raise SpecValidationError("%s: sigma %d out of range for team %d" % (loc, sig, kp))
        j = offsets[kp] + sig
        try:
            if timed:
                out[t, s, a, j] += val
            else:
                out[s, a, sp, j] += val
        except IndexError as exc:
            raise SpecValidationError("%s: index out of range (%s)" % (loc, exc)) from exc
    return out


def load_spec(document) -> GameSpec:
    """Parse and validate a game document.

    ``document`` is a JSON string/bytes or an already-parsed mapping. See
    README for the schema; all indices are 0-based label positions and
    stages run t = 0..horizon-1.
    """
    if isinstance(document, (str, bytes)):
        try:
            doc = json.loads(document)
        except json.JSONDecodeError as exc:
            raise SpecParseError("document is not valid JSON: %s" % exc) from exc
    elif isinstance(document, dict):
        doc = document
    else:
        raise SpecParseError("document must be JSON text or a mapping, got %r" % type(document))

    try:
        horizon = _count(doc["horizon"], "horizon")    # it shapes the cost arrays
        team_docs = doc["teams"]
    except (KeyError, TypeError, ValueError) as exc:
        raise SpecParseError("missing or malformed top-level field: %s" % exc) from exc
    seed = doc.get("seed", 0)
    if not isinstance(team_docs, list) or not team_docs:
        raise SpecParseError("'teams' must be a nonempty list")

    n_states = []
    for i, td in enumerate(team_docs):
        if not (isinstance(td, dict) and isinstance(td.get("states"), list) and td["states"]):
            raise SpecParseError("team %d must be an object with a nonempty 'states' list" % i)
        if not (isinstance(td.get("actions"), list) and td["actions"]):
            raise SpecParseError("team %d: 'actions' must be a nonempty list" % i)
        n_states.append(len(td["states"]))
    offsets = tuple(int(x) for x in np.cumsum([0] + n_states[:-1]))
    D = sum(n_states)

    teams = []
    for i, td in enumerate(team_docs):
        try:
            states = _labels(td["states"], "team %d: 'states'" % i)
            actions = _labels(td["actions"], "team %d: 'actions'" % i)
            population = td["population"]
            initial_law = _floats(td["initial_law"], "team %d: 'initial_law'" % i)
            trans = td["transition"]
            cost = td["cost"]
        except (KeyError, TypeError, ValueError) as exc:
            raise SpecParseError("team %d: missing or malformed field: %s" % (i, exc)) from exc
        for name, part in (("transition", trans), ("cost", cost)):
            if not isinstance(part, dict):
                raise SpecParseError("team %d: '%s' must be an object" % (i, name))
        S, A = len(states), len(actions)
        metric = (np.ones((S, S)) - np.eye(S) if td.get("metric") is None
                  else _floats(td["metric"], "team %d: 'metric'" % i))

        base = _floats(trans.get("base"), "team %d: transition 'base'" % i)
        tcoup = _dense_coupling(trans.get("coupling", []), (S, A, S, D),
                                n_states, offsets, "team %d transition" % i, timed=False)

        cbase = _floats(cost.get("base"), "team %d: cost 'base'" % i)
        if cbase.ndim == 2:
            cbase = np.broadcast_to(cbase, (horizon,) + cbase.shape).copy()
        ccoup = _dense_coupling(cost.get("coupling", []), (horizon, S, A, D),
                                n_states, offsets, "team %d cost" % i, timed=True)

        teams.append(TeamModel(
            team_id=i, state_labels=states, action_labels=actions,
            population=population, initial_law=initial_law, state_metric=metric,
            transition_base=base, transition_coupling=tcoup,
            cost_base=cbase, cost_coupling=ccoup))

    return GameSpec(teams=tuple(teams), horizon=horizon, seed=seed)


def load_spec_file(path) -> GameSpec:
    with open(path, "rb") as fh:
        return load_spec(fh.read())


def with_populations(spec: GameSpec, populations) -> GameSpec:
    """Same game with team populations replaced (revalidated)."""
    if np.ndim(populations) == 0:
        populations = [populations] * spec.n_teams
    if len(populations) != spec.n_teams:
        raise SpecValidationError("need one population per team")
    teams = tuple(replace(tm, population=n)
                  for tm, n in zip(spec.teams, populations))
    return GameSpec(teams=teams, horizon=spec.horizon, seed=spec.seed)
