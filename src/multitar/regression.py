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

Fits run on ``[R_x | R_y]``, the R factor of the centered ``[Xc | Yc]``
(at most ``p + q`` rows): it has the same Gram matrices and the same residual
norms ``||R_y - R_x B|| = ||Yc - Xc B||``, so no fit step grows with T.  The
lambda grid factors its training split once for all of its fits, and every
solve comes from ``numpy.linalg``, so a fit runs on numpy's BLAS alone.
At full Tucker rank the model is the unstructured ridge VAR on the
unfoldings, and the fit is one ridge solve ``(R_x'R_x + ridge I)^-1 R_x'R_y``
with identity factors.  Below full rank that solve seeds each factor with the
leading singular vectors of its unfolding, and each ALS sweep then updates the
core and every factor in mode order.  Each update is a few matrix products on
the Kronecker form, with the factor being updated set to an identity, and is
the exact minimizer of the penalized objective in that block with the others
held fixed, so the objective trace is non-increasing.
"""

from __future__ import annotations

import collections
import functools
import logging
import math
from dataclasses import dataclass, fields, replace

import numpy as np

from .tensor_ops import TuckerFactors, as_tensor, unfold

logger = logging.getLogger(__name__)


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
                if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
                    raise ValueError(f"{f.name} must be an integer")
                object.__setattr__(self, f.name, int(value))  # numpy ints too
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

    ``coefficient`` reconstructs to shape ``(*regressor_dims, *response_dims)``;
    ``intercept`` has a leading broadcast mode of extent 1.  The training
    means are kept so out-of-sample R2 can center against the training set.
    """

    intercept: np.ndarray
    coefficient: TuckerFactors
    ridge: float
    x_mean: np.ndarray
    y_mean: np.ndarray

    def __post_init__(self):
        if not 0.0 <= self.ridge < math.inf:
            raise ValueError("ridge must be finite and >= 0")
        nx = self.x_mean.ndim
        shape = self.coefficient.shape
        if shape[:nx] != self.x_mean.shape or shape[nx:] != self.y_mean.shape:
            raise ValueError(
                f"coefficient shape {shape} does not match regressor dims "
                f"{self.x_mean.shape} + response dims {self.y_mean.shape}"
            )
        if self.intercept.shape != (1,) + self.y_mean.shape:
            raise ValueError("intercept must have shape (1, *response_dims)")

    def coefficient_tensor(self) -> np.ndarray:
        """``B = W_x G W_y'``, the tensor the fit's objective and intercept use."""
        return _partial(self.coefficient.core, self.coefficient.factors,
                        self.x_mean.ndim)


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


def resolve_ranks(ranks, dims) -> tuple:
    """Turn ``"full"`` or an explicit sequence into validated per-mode ranks."""
    dims = tuple(int(d) for d in dims)
    if isinstance(ranks, str):
        if ranks != "full":
            raise ValueError(f"unknown rank specification {ranks!r}")
        return dims
    ranks = tuple(int(r) for r in ranks)
    if len(ranks) != len(dims):
        raise ValueError(f"need {len(dims)} ranks, got {len(ranks)}")
    for r, d in zip(ranks, dims):
        if not 1 <= r <= d:
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
# [r_x | r_y] is the R factor of the centred [Xc | Yc], gram = r_x'r_x, cross =
# r_x'r_y, and mode_grams[k] is the _mode_gram of r_x for regressor mode k.
_Split = collections.namedtuple("_Split", "x_mean y_mean r_x r_y gram cross mode_grams")


def _split(x, y) -> _Split:
    x, y = _check_pair(x, y)
    x_mean, y_mean = x.mean(axis=0), y.mean(axis=0)
    n, p = x.shape[0], x[0].size
    centered = np.hstack([(x - x_mean).reshape(n, p), (y - y_mean).reshape(n, -1)])
    r_x, r_y = np.hsplit(np.linalg.qr(centered, mode="r"), [p])
    xc = r_x.reshape((-1,) + x.shape[1:])
    return _Split(x_mean, y_mean, r_x, r_y, r_x.T @ r_x, r_x.T @ r_y,
                  tuple(_mode_gram(xc, k) for k in range(x.ndim - 1)))


def _solve_spd(a, rhs, context, ridge):
    """Solve a symmetric PSD system from a penalized least-squares block.

    A system whose eigenvalues span more than 1e13 is singular.  With
    ``ridge == 0`` that is an error (the caller must raise lambda).  With
    ``ridge > 0`` a singular ALS block has flat directions, where its penalty
    ``ridge * W'W`` is singular too; its normal equations are still
    consistent, so the minimum-norm solution is returned, as a Cholesky solve
    would take large steps along the flat directions, whose rounding can raise
    the objective.  An identity penalty keeps every eigenvalue at or above
    ``ridge``, so the minimum-norm solution also needs the smallest below
    ``ridge / 2``: a ridge solve on badly scaled data stays a Cholesky solve.
    ``trace(a) * trace(a^-1)`` bounds the spread from above; it costs the
    inverse of the Cholesky factor, which then gives the solution.
    """
    singular = (f"singular normal equations in {context} with lambda = 0; "
                "raise lambda to regularize")
    try:
        inv = np.linalg.inv(np.linalg.cholesky(a))  # a = l l', inv = l^-1
    except np.linalg.LinAlgError:
        if ridge > 0.0:
            return np.linalg.lstsq(a, rhs, rcond=1e-13)[0]
        raise SingularSystemError(singular) from None
    if np.trace(a) * np.sum(inv * inv) > 1e13:
        eig = np.linalg.eigvalsh(a)
        if eig[0] <= 1e-13 * eig[-1]:
            if ridge == 0.0:
                raise SingularSystemError(singular)
            if eig[0] < 0.5 * ridge:
                return np.linalg.lstsq(a, rhs, rcond=1e-13)[0]
    return inv.T @ (inv @ rhs)


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


def _partial(core, factors, n_reg, skip=-1):
    """The partial ``P = W_x G W_y'`` with factor ``skip`` an identity, folded
    to a tensor: ``B = P x_skip U_skip``, and ``P = B`` when none is skipped."""
    mats = [np.eye(u.shape[1]) if k == skip else u for k, u in enumerate(factors)]
    w_x = functools.reduce(np.kron, mats[:n_reg])
    w_y = functools.reduce(np.kron, mats[n_reg:])
    g = core.reshape(w_x.shape[1], w_y.shape[1])
    return (w_x @ g @ w_y.T).reshape([m.shape[0] for m in mats])


def _update_core(xc, yc, core_shape, factors, n_reg, ridge):
    n = xc.shape[0]
    w_x = functools.reduce(np.kron, factors[:n_reg])
    w_y = functools.reduce(np.kron, factors[n_reg:])
    z = xc.reshape(n, -1) @ w_x
    lhs = z.T @ z + ridge * (w_x.T @ w_x)
    gu = _solve_spd(lhs, z.T @ (yc.reshape(n, -1) @ w_y), "core update", ridge)
    gu = _solve_spd(w_y.T @ w_y, gu.T, "core update", ridge).T
    return gu.reshape(core_shape)


def _mode_gram(xc, k):
    """``x'x`` over the rows for ``x = xc`` with regressor mode ``k`` first."""
    x = np.moveaxis(xc, k + 1, 1).reshape(xc.shape[0], xc.shape[k + 1], -1)
    return np.tensordot(x, x, axes=(0, 0))


def _update_regressor_factor(xc, yc, core, factors, k, ridge, xtx=None):
    n = xc.shape[0]
    i_d, r_d = factors[k].shape
    # B = P x_k U_k for the partial P, so with o over the other regressor modes
    # the prediction is yhat[t, j] = sum x[t, i, o] U_k[i, a] p[a, o, j]
    x = np.moveaxis(xc, k + 1, 1).reshape(n, i_d, -1)
    part = unfold(_partial(core, factors, xc.ndim - 1, k), k)
    p = part.reshape(r_d, x.shape[2], -1)
    xtx = _mode_gram(xc, k) if xtx is None else xtx
    ptp = np.tensordot(p, p, axes=(2, 2))
    dtd = np.tensordot(xtx, ptp, axes=((1, 3), (1, 3))).transpose(0, 2, 1, 3)
    dtd = dtd.reshape(i_d * r_d, -1) + ridge * np.kron(np.eye(i_d), part @ part.T)
    yp = np.tensordot(yc.reshape(n, -1), p, axes=(1, 2))
    rhs = np.tensordot(x, yp, axes=((0, 2), (0, 2))).reshape(-1)
    sol = _solve_spd(dtd, rhs, f"factor {k} update", ridge)
    return sol.reshape(i_d, r_d)


def _update_response_factor(xc, yc, core, factors, d, ridge):
    n, n_reg = xc.shape[0], xc.ndim - 1
    part = _partial(core, factors, n_reg, d)
    # yhat = H x_d U_d for H = R_x . P, so the response unfolding is U_d H_(d)
    h = xc.reshape(n, -1) @ part.reshape(xc[0].size, -1)
    h = unfold(h.reshape((n,) + part.shape[n_reg:]), d - n_reg + 1)
    lhs = h @ h.T + ridge * (unfold(part, d) @ unfold(part, d).T)
    rhs = h @ unfold(yc, d - n_reg + 1).T
    return _solve_spd(lhs, rhs, f"factor {d} update", ridge).T.copy()


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
    resid = r_y - r_x @ b.reshape(r_x.shape[1], -1)
    return float(np.sum(resid * resid)) + ridge * float(np.sum(b * b))


def _als_sweeps(split, ranks, factors, ridge, config):
    """ALS from ``factors`` (updated in place); ``(core, B, trace, converged)``."""
    r_x, r_y, n_reg = split.r_x, split.r_y, split.x_mean.ndim
    xc = r_x.reshape((-1,) + split.x_mean.shape)
    yc = r_y.reshape((-1,) + split.y_mean.shape)
    floor = 1e-12 * (float(np.sum(r_y * r_y)) + 1e-300)
    trace = []
    for sweep in range(config.max_sweeps):
        core = _update_core(xc, yc, ranks, factors, n_reg, ridge)
        for d in range(n_reg):
            factors[d] = _update_regressor_factor(xc, yc, core, factors, d, ridge,
                                                  split.mode_grams[d])
        for d in range(n_reg, len(ranks)):
            factors[d] = _update_response_factor(xc, yc, core, factors, d, ridge)
        b = _partial(core, factors, n_reg)
        obj = _objective(r_x, r_y, b, ridge)
        if not math.isfinite(obj):
            raise SingularSystemError("ALS objective diverged; the problem is "
                                      "ill-posed, raise lambda")
        trace.append(obj)
        scale = max(abs(trace[-2]), floor) if sweep else None
        if sweep and abs(trace[-2] - obj) <= config.rel_tol * scale:
            return core, b, trace, True
    return core, b, trace, False


def als_fit(x, y, ranks, ridge: float, config: FitConfig | None = None, *,
            split: _Split | None = None):
    """Fit the penalized Tucker autoregression; full rank is one ridge solve.

    ``x`` and ``y`` share the sample mode first.  ``ranks`` is ``"full"`` or
    one rank per coefficient mode: the non-sample modes of ``x``, then those
    of ``y``.  ``ridge`` is the nonnegative weight on ``||B||_F^2``.  ``split``
    is private to :func:`fit_lambda_grid`, which passes the :func:`_split` of
    this ``x, y`` so that its grid factors the split once.  Returns
    ``(TarModel, FitReport)``.
    """
    split = _split(x, y) if split is None else split
    if not 0.0 <= ridge < math.inf:
        raise ValueError("ridge must be finite and >= 0")
    config = config or FitConfig()
    x_mean, y_mean, n_reg = split.x_mean, split.y_mean, split.x_mean.ndim
    dims = x_mean.shape + y_mean.shape
    ranks = resolve_ranks(ranks, dims)

    # at full rank the Tucker model is the unstructured ridge VAR, so this
    # solve is the fit; below full rank it seeds the factors
    full_rank = ranks == dims
    try:
        gram = split.gram + ridge * np.eye(len(split.gram))
        b = _solve_spd(gram, split.cross, "ridge solve", ridge).reshape(dims)
    except SingularSystemError:
        if full_rank:
            raise
        b = None

    if full_rank:
        core, factors = b, [np.eye(d) for d in dims]
        trace, converged = [_objective(split.r_x, split.r_y, b, ridge)], True
    else:
        factors = _init_factors(b, dims, ranks, config.seed)
        core, b, trace, converged = _als_sweeps(split, ranks, factors, ridge, config)

    intercept = y_mean[None] - np.tensordot(x_mean[None], b, axes=n_reg)
    coefficient = TuckerFactors(core, tuple(factors))
    model = TarModel(intercept=intercept, coefficient=coefficient, ridge=float(ridge),
                     x_mean=x_mean, y_mean=y_mean)
    report = FitReport(objective_trace=tuple(trace), converged=converged,
                       n_sweeps=len(trace))
    return model, report


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
    lambda, with ``report.predicted_r2`` set; ``table`` maps lambda to R2.
    """
    config = config or FitConfig()
    x, y = build_lagged_pairs(panel, lag)
    n = x.shape[0]
    n_train = int(n * config.train_fraction)
    if n_train < 1 or n_train >= n:
        raise ValueError(f"train_fraction {config.train_fraction} leaves an "
                         f"empty split for {n} samples")
    x_tr, y_tr = x[:n_train], y[:n_train]
    x_te, y_te = x[n_train:], y[n_train:]

    split = _split(x_tr, y_tr)
    table, fits = {}, {}
    for lam in config.lambda_grid:
        model, report = als_fit(x_tr, y_tr, ranks, lam, config, split=split)
        table[lam] = predicted_r2(model, x_te, y_te)
        fits[lam] = model, replace(report, predicted_r2=table[lam])
    unconverged = [lam for lam, (_, report) in fits.items() if not report.converged]
    if unconverged:
        logger.warning("ALS stopped at max_sweeps=%d without converging for "
                       "lambda %s", config.max_sweeps, unconverged)
    scored = [lam for lam, r2 in table.items() if not math.isnan(r2)]
    if not scored:
        raise ValueError(f"predicted R2 is NaN for every lambda in lambda_grid "
                         f"{list(config.lambda_grid)}")
    model, report = fits[max(scored, key=lambda lam: (table[lam], -lam))]
    return model, report, table
