"""Tucker tensor autoregression with ridge shrinkage, fitted by ALS.

The model is ``Y = A + <X, B> + E`` where the contraction pairs every
non-sample mode of the regressor ``X`` with the leading modes of the
coefficient ``B``, and ``B`` carries a Tucker structure ``core x_d U_d``.
Unfolded to regressor by response modes this is ``B = W_x G W_y'``, where
``G`` is the core unfolded the same way and ``W_x``, ``W_y`` are the Kronecker
products of the regressor and of the response factors in mode order.
Fitting minimizes ``||Y - A - <X, B>||_F^2 + ridge * ||B||_F^2``; the
intercept is handled by mean-centering, and the penalty acts on the
reconstructed ``B``, not on the individual Tucker blocks.

Fits run on ``[R_x | R_y]``, the R factor of the centered ``[Xc | Yc]`` (at
most ``p + q`` rows), which has the same Gram matrices and residual norms, so
no fit step grows with T; a grid factors its training split once, and every
solve comes from ``numpy.linalg``.  At full Tucker rank the model is the ridge
VAR on the unfoldings, with identity factors, and one SVD ``R_x = U diag(s) V'``
fits the whole grid: ``B = V diag(s / (s^2 + ridge)) U'R_y``.  Below full rank
that B seeds each factor with the leading singular vectors of its unfolding,
and each ALS sweep updates the core, then every factor in mode order, each by
the exact minimizer of the penalized objective in its block (a few matrix
products on the Kronecker form), so the objective trace is non-increasing.
The grid runs one ALS for all of its weights, with a leading axis on the core,
the factors and every update; each product is formed per slice as for one
fit, so a grid fit equals the standalone :func:`als_fit` bit for bit.  A
weight leaves the sweeps when it converges or its fit fails.  Only a weight
of 0 can meet singular normal equations, and the others then rerun that sweep
without it, so a failing weight is one unscored row of the grid.
"""

from __future__ import annotations

import collections
import functools
import logging
import math
from dataclasses import dataclass, fields, replace

import numpy as np

from .tensor_ops import as_tensor, unfold

logger = logging.getLogger(__name__)
_SINGULAR = "singular normal equations in {} with lambda = 0; raise lambda to regularize"


class SingularSystemError(np.linalg.LinAlgError):
    """Normal equations are singular; raised with guidance to raise ridge."""


@dataclass(frozen=True)
class FitConfig:
    """Knobs of the ALS fit and of lambda selection."""

    max_sweeps: int = 200
    rel_tol: float = 1e-8
    lambda_grid: tuple = (0.0, 1.0, 5.0, 10.0, 20.0, 50.0)
    train_fraction: float = 0.9
    seed: int = 0

    def __post_init__(self):
        for f in fields(self):  # also the int fields of subclasses
            value = getattr(self, f.name)
            if f.type == "int" or f.type == "int | None" and value is not None:
                object.__setattr__(self, f.name, _integer(value, f.name))
        if self.max_sweeps < 1:
            raise ValueError("max_sweeps must be >= 1")
        if not 0.0 < self.rel_tol < math.inf:
            raise ValueError("rel_tol must be finite and > 0")
        if not 0.0 < self.train_fraction < 1.0:
            raise ValueError("train_fraction must lie in (0, 1)")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")
        grid = tuple(float(v) for v in self.lambda_grid)
        if not grid:
            raise ValueError("lambda_grid is empty")
        if not all(0.0 <= v < math.inf for v in grid):
            raise ValueError("lambda_grid values must be finite and >= 0")
        if len(set(grid)) < len(grid):
            raise ValueError(f"lambda_grid repeats {[v for v in grid if grid.count(v) > 1][0]}")
        object.__setattr__(self, "lambda_grid", grid)


@dataclass(frozen=True)
class FitReport:
    """Per-fit diagnostics; ``predicted_r2`` is NaN unless a test set was scored."""

    objective_trace: tuple
    converged: bool
    n_sweeps: int
    predicted_r2: float = float("nan")


@dataclass(frozen=True)
class TarModel:
    """Fitted tensor autoregression.

    The coefficient is the Tucker tensor ``core x_d factors[d]``, of shape
    ``(*regressor_dims, *response_dims)``: factor ``d`` is ``(I_d, R_d)`` for
    core extent ``R_d``.  ``intercept`` has a leading broadcast mode of extent
    1; the training means are kept so out-of-sample R2 can center on them.
    """

    intercept: np.ndarray
    core: np.ndarray
    factors: tuple
    ridge: float
    x_mean: np.ndarray
    y_mean: np.ndarray
    b: np.ndarray | None = None  # the fit's B; reconstructed once when None

    def __post_init__(self):
        core = as_tensor(self.core)
        factors = tuple(np.asarray(f, dtype=np.float64) for f in self.factors)
        object.__setattr__(self, "core", core)
        object.__setattr__(self, "factors", factors)
        if len(factors) != core.ndim:
            raise ValueError(f"need one factor per core mode: {len(factors)} factors "
                             f"for order-{core.ndim} core")
        for d, f in enumerate(factors):
            if f.ndim != 2:
                raise ValueError(f"factor {d} is not a matrix")
            if f.shape[1] != core.shape[d]:
                raise ValueError(f"factor {d} has {f.shape[1]} columns but core mode "
                                 f"{d} has extent {core.shape[d]}")
        if not 0.0 <= self.ridge < math.inf:
            raise ValueError("ridge must be finite and >= 0")
        nx = self.x_mean.ndim
        shape = tuple(f.shape[0] for f in factors)
        if shape[:nx] != self.x_mean.shape or shape[nx:] != self.y_mean.shape:
            raise ValueError(
                f"coefficient shape {shape} does not match regressor dims "
                f"{self.x_mean.shape} + response dims {self.y_mean.shape}"
            )
        if self.intercept.shape != (1,) + self.y_mean.shape:
            raise ValueError("intercept must have shape (1, *response_dims)")
        if self.b is None:
            object.__setattr__(self, "b", _partial(core, factors, nx))
        self.b.flags.writeable = False

    def coefficient_tensor(self) -> np.ndarray:
        """``B = W_x G W_y'``, the tensor the fit's objective and intercept use
        (read-only: it is the model's own)."""
        return self.b


def build_lagged_pairs(panel, lag: int):
    """Split a (T, ...) panel into aligned regressor/response tensors.

    ``X_t = panel[t]`` and ``Y_t = panel[t + lag]``, both with the sample
    index on mode 0 and ``T - lag`` samples.
    """
    panel = as_tensor(panel)
    t = panel.shape[0]
    if lag < 1:
        raise ValueError("lag must be >= 1")
    if lag >= t:
        raise ValueError(f"lag {lag} leaves no samples for a length-{t} panel")
    return panel[:-lag].copy(), panel[lag:].copy()


def _integer(value, name: str) -> int:
    """``value`` as an ``int`` (numpy ints too); a bool or other type fails."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{name} must be an integer")
    return int(value)


def check_ranks(ranks):
    """``"full"``, or the ranks as a tuple of ``int`` >= 1; fails naming a bad one."""
    if isinstance(ranks, str):
        if ranks != "full":
            raise ValueError(f"unknown rank specification {ranks!r}")
        return ranks
    ranks = tuple(_integer(r, f"rank {r!r}") for r in ranks)
    for r in ranks:
        if r < 1:
            raise ValueError(f"rank {r} must be >= 1")
    return ranks


def resolve_ranks(ranks, dims) -> tuple:
    """Turn ``"full"`` or an explicit sequence into validated per-mode ranks."""
    dims = tuple(int(d) for d in dims)
    ranks = check_ranks(ranks)
    if ranks == "full":
        return dims
    if len(ranks) != len(dims):
        raise ValueError(f"need {len(dims)} ranks, got {len(ranks)}")
    for r, d in zip(ranks, dims):
        if r > d:
            raise ValueError(f"rank {r} outside [1, {d}]")
    # Below full rank, a mode whose rank exceeds the product of the others has
    # singular factor normal equations, and the objective trace can rise.
    if ranks != dims:
        for mode, r in enumerate(ranks):
            rest = math.prod(ranks) // r
            if r > rest:
                raise ValueError(f"rank {r} of mode {mode} exceeds the product "
                                 f"{rest} of the other ranks")
    return ranks


def _check_pair(x, y):
    x, y = as_tensor(x), as_tensor(y)
    if x.ndim < 2 or y.ndim < 2:
        raise ValueError("x and y need a sample mode plus at least one data mode")
    if x.shape[0] != y.shape[0]:
        raise ValueError(f"sample extents differ: {x.shape[0]} vs {y.shape[0]}")
    if not np.all(np.isfinite(x)) or not np.all(np.isfinite(y)):
        raise ValueError("x or y contains NaN or Inf")
    return x, y


# A training split, checked, centred and QR-factored once for every fit on it:
# [r_x | r_y] is the R factor of the centred [Xc | Yc].
_Split = collections.namedtuple("_Split", "x_mean y_mean r_x r_y")


def _split(x, y) -> _Split:
    x, y = _check_pair(x, y)
    x_mean, y_mean = x.mean(axis=0), y.mean(axis=0)
    n, p = x.shape[0], x[0].size
    centered = np.hstack([(x - x_mean).reshape(n, p), (y - y_mean).reshape(n, -1)])
    r_x, r_y = np.hsplit(np.linalg.qr(centered, mode="r"), [p])
    return _Split(x_mean, y_mean, r_x, r_y)


def _solve_spd(a, rhs, context, ridge):
    """Solve a symmetric PSD system from a penalized least-squares block.

    A system whose eigenvalues span more than 1e13 is singular: an error at
    ``ridge == 0``, which fails that weight's fit.  At ``ridge > 0`` a singular
    ALS block has flat directions, where its penalty ``ridge * W'W`` is singular
    too, but its normal equations are consistent, so it gets the minimum-norm
    solution: a Cholesky solve's large, rounded steps along the flat directions
    can raise the objective.  An identity penalty keeps every eigenvalue at or
    above ``ridge``, so that path also needs the smallest below ``ridge / 2``.
    ``trace(a) * trace(a^-1)`` bounds the spread from above, at the cost of the
    Cholesky factor's inverse, which gives the solution.  For a stack of systems
    (``rhs`` and ``ridge`` stacked alike), a matrix whose bound trips is solved
    on its own, and so is every matrix when numpy's stacked Cholesky fails on
    one, as it does not say which.
    """
    try:
        inv = np.linalg.inv(np.linalg.cholesky(a))  # a = l l', inv = l^-1
    except np.linalg.LinAlgError:  # a matrix is not positive definite
        inv = np.full_like(a, np.nan)
    out = inv.swapaxes(-1, -2) @ (inv @ rhs)
    spread = np.trace(a, axis1=-2, axis2=-1) * np.sum(inv * inv, axis=(-2, -1))
    if a.ndim > 2:
        for i in np.flatnonzero(~(spread <= 1e13)):
            out[i] = _solve_spd(a[i], rhs[i], context, ridge[i])
    elif not spread <= 1e13:
        failed = np.isnan(spread)  # the Cholesky failed
        eig = None if failed else np.linalg.eigvalsh(a)
        if failed or eig[0] <= 1e-13 * eig[-1]:
            if ridge == 0.0:
                raise SingularSystemError(_SINGULAR.format(context))
            if failed or eig[0] < 0.5 * ridge:
                return np.linalg.lstsq(a, rhs, rcond=1e-13)[0]
    return out


def closed_form_fit(x, y, ridge: float) -> np.ndarray:
    """Full-rank ridge solution on the sample-mode unfoldings.

    Returns ``(Xc' Xc + ridge I)^-1 Xc' Yc`` where ``Xc, Yc`` are the
    mean-centered unfoldings.  At full Tucker rank :func:`als_fit` returns
    this matrix, solved from the R factor instead of the raw samples, which
    makes it the reference for equivalence checks.
    """
    x, y = _check_pair(x, y)
    if not 0.0 <= ridge < math.inf:
        raise ValueError("ridge must be finite and >= 0")
    xu = x.reshape(x.shape[0], -1)
    xc = xu - xu.mean(axis=0)
    yu = y.reshape(y.shape[0], -1)
    gram = xc.T @ xc + ridge * np.eye(xc.shape[1])
    return _solve_spd(gram, xc.T @ (yu - yu.mean(axis=0)), "closed_form_fit", ridge)


def _kron(a, b):
    """``np.kron`` of the last two axes, over any leading (stack) axes."""
    k = a[..., :, None, :, None] * b[..., None, :, None, :]
    return k.reshape(k.shape[:-4] + (k.shape[-4] * k.shape[-3], -1))


def _partial(core, factors, n_reg, skip=-1):
    """The partial ``P = W_x G W_y'`` with factor ``skip`` an identity, folded
    to a tensor: ``B = P x_skip U_skip``, and ``P = B`` when none is skipped."""
    mats = [np.eye(u.shape[-1]) if k == skip else u for k, u in enumerate(factors)]
    w_x = functools.reduce(_kron, mats[:n_reg])
    w_y = functools.reduce(_kron, mats[n_reg:])
    lead = core.shape[:core.ndim - len(factors)]
    g = core.reshape(lead + (w_x.shape[-1], w_y.shape[-1]))
    shape = lead + tuple(u.shape[-2] for u in mats)
    return (w_x @ g @ w_y.swapaxes(-1, -2)).reshape(shape)


def _update_core(xc, yc, core_shape, factors, n_reg, ridge):
    n = xc.shape[0]
    w_x = functools.reduce(_kron, factors[:n_reg])
    w_y = functools.reduce(_kron, factors[n_reg:])
    z = xc.reshape(n, -1) @ w_x
    zt = z.swapaxes(-1, -2)
    lhs = zt @ z + np.asarray(ridge)[..., None, None] * (w_x.swapaxes(-1, -2) @ w_x)
    gu = _solve_spd(lhs, zt @ (yc.reshape(n, -1) @ w_y), "core update", ridge)
    gu = _solve_spd(w_y.swapaxes(-1, -2) @ w_y, gu.swapaxes(-1, -2), "core update",
                    ridge)
    return gu.swapaxes(-1, -2).reshape(gu.shape[:-2] + tuple(core_shape))


def _mode_gram(xc, k):
    """``x'x`` over the rows for ``x = xc`` with regressor mode ``k`` first,
    as a matrix with rows ``(i, i')`` and columns ``(o, o')`` over the others."""
    x = np.moveaxis(xc, k + 1, 1).reshape(xc.shape[0], xc.shape[k + 1], -1)
    xtx = np.tensordot(x, x, axes=(0, 0)).transpose(0, 2, 1, 3)
    return xtx.reshape(x.shape[1] ** 2, -1)


def _update_regressor_factor(xc, yc, core, factors, k, ridge, xtx=None):
    n = xc.shape[0]
    lead, (i_d, r_d) = factors[k].shape[:-2], factors[k].shape[-2:]
    # B = P x_k U_k for the partial P, so with o over the other regressor modes
    # the prediction is yhat[t, j] = sum x[t, i, o] U_k[i, a] p[(a, o), j]
    x = np.moveaxis(xc, k + 1, 1).reshape(n, i_d, -1)
    o = x.shape[2]
    part = unfold(_partial(core, factors, xc.ndim - 1, k), k, len(lead))
    p = part.reshape(lead + (r_d * o, -1))
    xtx = _mode_gram(xc, k) if xtx is None else xtx
    ptp = (p @ p.swapaxes(-1, -2)).reshape(lead + (r_d, o, r_d, o))
    ptp = np.moveaxis(ptp, (-3, -1), (-4, -3)).reshape(lead + (o * o, r_d * r_d))
    dtd = (xtx @ ptp).reshape(lead + (i_d, i_d, r_d, r_d)).swapaxes(-3, -2)
    penalty = _kron(np.eye(i_d), part @ part.swapaxes(-1, -2))
    dtd = dtd.reshape(penalty.shape) + np.asarray(ridge)[..., None, None] * penalty
    yp = (yc.reshape(n, -1) @ p.swapaxes(-1, -2)).reshape(lead + (n, r_d, o))
    yp = yp.swapaxes(-1, -2).reshape(lead + (n * o, r_d))
    rhs = (x.transpose(1, 0, 2).reshape(i_d, -1) @ yp).reshape(lead + (-1, 1))
    sol = _solve_spd(dtd, rhs, f"factor {k} update", ridge)
    return sol.reshape(lead + (i_d, r_d))


def _update_response_factor(xc, yc, core, factors, d, ridge):
    n, n_reg, nl = xc.shape[0], xc.ndim - 1, core.ndim - len(factors)
    part = _partial(core, factors, n_reg, d)
    # yhat = H x_d U_d for H = R_x . P, so the response unfolding is U_d H_(d)
    h = xc.reshape(n, -1) @ part.reshape(part.shape[:nl] + (xc[0].size, -1))
    h = unfold(h.reshape(part.shape[:nl] + (n,) + part.shape[nl + n_reg:]),
                d - n_reg + 1, nl)
    lhs = h @ h.swapaxes(-1, -2) + np.asarray(ridge)[..., None, None] * (
        unfold(part, d, nl) @ unfold(part, d, nl).swapaxes(-1, -2))
    rhs = h @ unfold(yc, d - n_reg + 1).T
    return _solve_spd(lhs, rhs, f"factor {d} update", ridge).swapaxes(-1, -2).copy()


def _init_factors(b_full, dims, ranks, seed):
    """Leading left singular vectors of each unfolding of the full-rank fit,
    or random orthonormal factors when that fit is singular (``None``)."""
    if b_full is None:
        rng = np.random.default_rng(seed)
        return [np.linalg.qr(rng.standard_normal((d, r)))[0]
                for d, r in zip(dims, ranks)]
    return [np.ascontiguousarray(
                np.linalg.svd(unfold(b_full, d), full_matrices=False)[0][:, :r])
            for d, r in enumerate(ranks)]


def _objective(r_x, r_y, b, ridge):
    """The penalized objective of each coefficient in the stack ``b``."""
    b = b.reshape(-1, r_x.shape[1], r_y.shape[1])
    resid = r_y - r_x @ b
    return np.sum(resid * resid, axis=(1, 2)) + ridge * np.sum(b * b, axis=(1, 2))


def _model(split, ridge, core, b, factors, trace, converged):
    intercept = split.y_mean[None] - np.tensordot(split.x_mean[None], b,
                                                  axes=split.x_mean.ndim)
    return (TarModel(intercept, core, tuple(factors), float(ridge), split.x_mean,
                     split.y_mean, b),
            FitReport(tuple(trace), converged, len(trace)))


def _als_sweeps(split, ranks, factors, ridge, config):
    """ALS for every weight in ``ridge`` at once, slice i of the stacked
    ``factors`` for ``ridge[i]``: each sweep updates the core, then every factor
    in mode order, of the fits still running, until each converges, reaches
    ``max_sweeps`` or fails; ``(TarModel, FitReport)`` or its error, per weight."""
    r_x, r_y, n_reg = split.r_x, split.r_y, split.x_mean.ndim
    xc = r_x.reshape((-1,) + split.x_mean.shape)
    yc = r_y.reshape((-1,) + split.y_mean.shape)
    floor = 1e-12 * (float(np.sum(r_y * r_y)) + 1e-300)
    grams = [_mode_gram(xc, d) for d in range(n_reg)]
    out, traces, run = [None] * len(ridge), [[] for _ in ridge], list(range(len(ridge)))
    while run:
        lam, start = ridge[run], list(factors)
        try:
            core = _update_core(xc, yc, ranks, factors, n_reg, lam)
            for d in range(n_reg):
                factors[d] = _update_regressor_factor(xc, yc, core, factors, d, lam,
                                                      grams[d])
            for d in range(n_reg, len(ranks)):
                factors[d] = _update_response_factor(xc, yc, core, factors, d, lam)
        except SingularSystemError as exc:  # raised only by the weight 0
            out[run[int(np.flatnonzero(lam == 0.0)[0])]] = exc
            factors = start  # the others rerun this sweep without it
        else:
            b = _partial(core, factors, n_reg)
            obj = _objective(r_x, r_y, b, lam)
            for j, i in enumerate(run):
                trace = traces[i]
                trace.append(float(obj[j]))
                converged = len(trace) > 1 and (
                    abs(trace[-2] - trace[-1]) <= config.rel_tol * max(abs(trace[-2]), floor))
                if not math.isfinite(trace[-1]):
                    out[i] = SingularSystemError("ALS objective diverged; the problem "
                                                 "is ill-posed, raise lambda")
                elif converged or len(trace) == config.max_sweeps:
                    out[i] = _model(split, ridge[i], core[j], b[j],
                                    [f[j] for f in factors], trace, converged)
        keep = [j for j, i in enumerate(run) if out[i] is None]
        run, factors = [run[j] for j in keep], [f[keep] for f in factors]
    return out


def _fit_grid(split, ranks, grid, config):
    """``(TarModel, FitReport)`` for each ridge weight in ``grid``, in order,
    or the ``LinAlgError`` that weight's fit raised."""
    dims = split.x_mean.shape + split.y_mean.shape
    ranks = resolve_ranks(ranks, dims)
    # every weight's full-rank B; lambda 0 is singular where s^2 spans over 1e13
    p = split.r_x.shape[1]  # R_x is zero below its first p rows
    u, sv, vt = np.linalg.svd(split.r_x[:p], full_matrices=False)
    uty = u.T @ split.r_y[:p]
    singular = sv.size < p or sv[-1] ** 2 <= 1e-13 * sv[0] ** 2
    seeds = [None if lam == 0.0 and singular else
             (vt.T @ ((sv / (sv * sv + lam))[:, None] * uty)).reshape(dims) for lam in grid]
    if ranks == dims:
        return [SingularSystemError(_SINGULAR.format("ridge solve")) if b is None else
                _model(split, lam, b, b, [np.eye(d) for d in dims],
                       _objective(split.r_x, split.r_y, b, lam).tolist(), True)
                for lam, b in zip(grid, seeds)]
    factors = zip(*(_init_factors(b, dims, ranks, config.seed) for b in seeds))
    return _als_sweeps(split, ranks, [np.stack(f) for f in factors],
                       np.array(grid, dtype=float), config)


def als_fit(x, y, ranks, ridge: float, config: FitConfig | None = None):
    """Fit the penalized Tucker autoregression; full rank is one SVD of R_x.

    ``x`` and ``y`` share the sample mode first.  ``ranks`` is ``"full"`` or
    one rank per coefficient mode: the non-sample modes of ``x``, then those
    of ``y``.  ``ridge`` is the nonnegative weight on ``||B||_F^2``.  This is
    :func:`fit_lambda_grid`'s fit for a grid of one weight.  Returns
    ``(TarModel, FitReport)``; a fit that fails raises its error.
    """
    if not 0.0 <= ridge < math.inf:
        raise ValueError("ridge must be finite and >= 0")
    [fit] = _fit_grid(_split(x, y), ranks, (ridge,), config or FitConfig())
    if isinstance(fit, Exception):
        raise fit
    return fit


def predict(model: TarModel, x) -> np.ndarray:
    """``A + <X, B>`` with the intercept broadcast over the sample mode."""
    x = as_tensor(x)
    n_reg = model.x_mean.ndim
    if x.ndim != n_reg + 1 or x.shape[1:] != model.x_mean.shape:
        raise ValueError(
            f"regressor dims {x.shape[1:]} do not match model dims "
            f"{model.x_mean.shape}"
        )
    return model.intercept + np.tensordot(x, model.coefficient_tensor(), axes=n_reg)


def predicted_r2(model: TarModel, x_test, y_test) -> float:
    """Out-of-sample R2 centered on the training-set mean stored in the model."""
    y_test = as_tensor(y_test)
    pred = predict(model, x_test)
    if pred.shape != y_test.shape:
        raise ValueError("y_test shape does not match predictions")
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow gives a NaN or -inf R2
        rss = float(np.sum((y_test - pred) ** 2))
        tss = float(np.sum((y_test - model.y_mean[None]) ** 2))
    if tss <= 0.0:
        raise ValueError("zero total sum of squares on the test set")
    return 1.0 - rss / tss


def fit_lambda_grid(panel, ranks, config: FitConfig | None = None, lag: int = 1):
    """Fit every grid value on a chronological split and keep the best.

    The first ``train_fraction`` of lagged sample pairs trains a model per
    grid value; the remainder scores it by out-of-sample R2.  Returns
    ``(model, report, table)`` for the highest R2, ties going to the smaller
    lambda, with ``report.predicted_r2`` set.  ``table`` maps each lambda to
    its R2, or to why it is unscored: the text of the ``LinAlgError`` its fit
    raised, or ``"predicted R2 is NaN"``.  Unscored lambdas are logged; the
    grid fails only when no lambda is scored.
    """
    config = config or FitConfig()
    x, y = build_lagged_pairs(panel, lag)
    n = x.shape[0]
    n_train = int(n * config.train_fraction)
    if n_train < 1 or n_train >= n:
        raise ValueError(f"train_fraction {config.train_fraction} leaves an "
                         f"empty split for {n} samples")

    table, fits = {}, {}
    grid = _fit_grid(_split(x[:n_train], y[:n_train]), ranks, config.lambda_grid, config)
    for lam, fit in zip(config.lambda_grid, grid):
        if isinstance(fit, Exception):
            table[lam] = str(fit)
            continue
        r2 = predicted_r2(fit[0], x[n_train:], y[n_train:])
        table[lam] = "predicted R2 is NaN" if math.isnan(r2) else r2
        fits[lam] = fit[0], replace(fit[1], predicted_r2=r2)
    unconverged = [lam for lam, (_, report) in fits.items() if not report.converged]
    if unconverged:
        logger.warning("ALS stopped at max_sweeps=%d without converging for "
                       "lambda %s", config.max_sweeps, unconverged)
    missing = {lam: r2 for lam, r2 in table.items() if isinstance(r2, str)}
    text = "; ".join(f"lambda {[lam for lam in missing if missing[lam] == reason]} "
                     f"left unscored: {reason}" for reason in dict.fromkeys(missing.values()))
    scored = [lam for lam in fits if lam not in missing]
    if not scored:
        raise ValueError(f"no lambda in lambda_grid {list(config.lambda_grid)} "
                         f"is scored: {text}")
    if missing:
        logger.warning("%s", text)
    model, report = fits[max(scored, key=lambda lam: (table[lam], -lam))]
    return model, report, table
