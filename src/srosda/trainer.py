"""End-to-end training orchestration: batching, plain SGD, periodic
pseudo-label refresh and history logging.

The refresh at epoch 0 runs the separation procedure on raw x-features; later
refreshes (every ``refresh_period`` epochs) run it on the current z-features.
Each refresh also recomputes pseudo attributes for seen targets and the full
set of z-prototypes. Everything is seeded, and ``train`` and
``refresh_pseudo`` pin BLAS to one thread for their duration (restoring the
caller's count on exit), so (seed, cfg, data) fully determine the run at any
thread count. Without an OpenBLAS thread control (e.g. numpy built against
another BLAS) the pin is skipped with a one-time warning, and results may then
depend on the BLAS thread count.
"""

import hashlib
from dataclasses import dataclass, field
from typing import List, Tuple

import numpy as np

from .dataio import SourceDataset, read_dataclass
from .exceptions import ConfigError, DataError, TrainingError
from .model import ModelParams, forward_gz, init_params
from .numkernel import (CONDITION_LIMIT, MAX_INVERSE_SIZE, check_finite,
                        make_rng, single_blas_thread)
from .objective import (BatchLossReport, TrainBatch, ZPrototypes,
                        compute_z_prototypes, objective_grads, total_objective)
from .separation import PseudoState, run_progressive_separation

# The propagation system I - beta L has its eigenvalues in [1 - beta, 1 + beta]
# (L is a normalized affinity), so its 1-norm condition number is at most
# 2 n / (1 - beta) for n <= MAX_INVERSE_SIZE rows. Up to this beta that stays
# within the CONDITION_LIMIT that inv_small enforces.
BETA_MAX = 1.0 - 2.0 * MAX_INVERSE_SIZE / CONDITION_LIMIT


@dataclass
class TrainConfig:
    k: int
    lr: float = 1e-3
    epochs: int = 100
    batch_size: int = 64
    lambda1: float = 1e-4
    lambda2: float = 0.1
    alpha: float = 0.001
    beta: float = 0.2
    seed: int = 0
    refresh_period: int = 10
    separation_rounds: int = 5
    use_lr: bool = True
    use_ld: bool = True
    use_prop: bool = True
    use_fusion: bool = True

    def validate(self, n_target=None):
        """Raise ConfigError unless every field is in range. ``n_target``,
        when given, is the number of target rows to train on: k-means++
        draws k distinct centers from them, so k may not exceed it."""
        # written so that NaN fails every range check
        if self.batch_size < 2:
            raise ConfigError("batch_size must be >= 2")
        if self.epochs < 1 or self.k < 1:
            raise ConfigError("epochs and k must be positive")
        if self.seed < 0:
            raise ConfigError("seed must be >= 0")
        if not 0 < self.lr < np.inf:
            raise ConfigError("lr must be finite and positive")
        if not (0 <= self.lambda1 < np.inf and 0 <= self.lambda2 < np.inf):
            raise ConfigError("lambda1 and lambda2 must be finite and >= 0")
        if not (0 <= self.beta <= BETA_MAX and 0 <= self.alpha <= 1):
            raise ConfigError(f"beta must be in [0, {BETA_MAX!r}] and alpha "
                              "in [0, 1]")
        if self.refresh_period < 1 or self.separation_rounds < 0:
            raise ConfigError("refresh_period must be >= 1, separation_rounds >= 0")
        if self.use_prop and self.batch_size > MAX_INVERSE_SIZE:
            raise ConfigError(f"batch_size must be <= {MAX_INVERSE_SIZE} with "
                              "use_prop (the propagation inverse limit)")
        if n_target is not None and self.k > n_target:
            raise ConfigError(f"k = {self.k} exceeds the {n_target} target samples")


def load_config(path) -> TrainConfig:
    cfg = read_dataclass(path, TrainConfig)
    cfg.validate()
    return cfg


@dataclass
class TrainHistory:
    epochs: List[BatchLossReport] = field(default_factory=list)
    params_checksum: str = ""


def make_batches(n_source, n_target, batch_size, rng):
    """Seeded shuffled index batches: paired (source, target) half-batches
    while both streams last, then single-domain batches for the leftover of
    the longer stream. Each domain is covered exactly once per epoch.
    ``batch_size`` is one that ``TrainConfig.validate`` accepts."""
    half_s = (batch_size + 1) // 2
    half_t = batch_size // 2
    s_order = rng.permutation(n_source)
    t_order = rng.permutation(n_target)
    s_chunks = [s_order[i:i + half_s] for i in range(0, n_source, half_s)]
    t_chunks = [t_order[i:i + half_t] for i in range(0, n_target, half_t)]
    batches = []
    empty = np.empty(0, dtype=np.int64)
    for i in range(max(len(s_chunks), len(t_chunks))):
        s = s_chunks[i] if i < len(s_chunks) else empty
        t = t_chunks[i] if i < len(t_chunks) else empty
        batches.append((s, t))
    return batches


def sgd_step(params: ModelParams, grads, lr):
    """theta <- theta - lr * g, in place. ``grads`` holds every layer
    (KeyError otherwise); a non-finite gradient raises TrainingError before
    any layer changes."""
    for name in params.arrays:
        if not np.all(np.isfinite(grads[name])):
            raise TrainingError(f"non-finite gradient in layer {name}")
    for name, arr in params.arrays.items():
        arr -= lr * grads[name]


@single_blas_thread()
def refresh_pseudo(params: ModelParams, source: SourceDataset, target_features,
                   cfg: TrainConfig, space="z",
                   keep=True) -> Tuple[PseudoState, ZPrototypes, np.ndarray]:
    """Re-run the separation procedure and derived state.

    ``space="x"`` separates on raw features (epoch-0 initialization);
    ``space="z"`` separates on current G_Z embeddings. Returns the pseudo
    state, the full-set z-prototypes and the per-target pseudo attributes
    (rows of the source attribute table for seen targets, zeros otherwise).
    ``keep`` is passed to the target rows' ``forward_gz``, so that a
    ``compute_report`` on the same rows and params that follows reuses their
    embedding.
    """
    if space == "x":
        src_feats = source.features
        tgt_feats = np.asarray(target_features, dtype=np.float64)
    elif space == "z":
        src_feats = forward_gz(params, source.features)
        tgt_feats = forward_gz(params, target_features, keep=keep)
    else:
        raise ConfigError(f"unknown separation space {space!r}")
    state = run_progressive_separation(src_feats, source.labels, source.k_s,
                                       tgt_feats, cfg)
    z_t = (tgt_feats if space == "z"
           else forward_gz(params, target_features, keep=keep))
    rz = compute_z_prototypes(z_t, state.pseudo_label, source.k_s + cfg.k)
    pseudo_attrs = np.zeros((tgt_feats.shape[0], source.d_a))
    seen = state.seen_mask
    pseudo_attrs[seen] = source.attr_table_seen[state.pseudo_label[seen]]
    return state, rz, pseudo_attrs


def _params_checksum(params: ModelParams):
    h = hashlib.sha256()
    for name in sorted(params.arrays):
        h.update(name.encode())
        h.update(params.arrays[name].tobytes())
    return h.hexdigest()


@single_blas_thread()
def train(cfg: TrainConfig, source: SourceDataset, target_features,
          on_epoch=None):
    """Minimize the full objective from ``init_params(..., seed=cfg.seed)``;
    returns (params, history, pseudo_state).

    ``on_epoch(epoch, report)`` is an optional progress callback. The target
    features are checked for finiteness on entry, so a non-finite value met
    later means the optimization diverged: that, and final parameters that
    are not finite, raise TrainingError.
    """
    target_features = check_finite(target_features, "target features")
    cfg.validate(n_target=target_features.shape[0])
    params = init_params(source.features.shape[1], source.d_a, source.k_s,
                         seed=cfg.seed)
    rng = make_rng(cfg.seed + 1)
    history = TrainHistory()

    # no report follows a refresh inside training, so nothing is kept
    pseudo, rz, pseudo_attrs = refresh_pseudo(params, source, target_features,
                                              cfg, space="x", keep=False)
    src_attrs = source.sample_attributes()

    for epoch in range(cfg.epochs):
        n_batches = 0
        try:
            if epoch > 0 and epoch % cfg.refresh_period == 0:
                pseudo, rz, pseudo_attrs = refresh_pseudo(params, source,
                                                          target_features, cfg,
                                                          space="z", keep=False)
            sums = np.zeros(5)
            for s_idx, t_idx in make_batches(source.features.shape[0],
                                             target_features.shape[0],
                                             cfg.batch_size, rng):
                batch = TrainBatch(
                    xs=source.features[s_idx], ys=source.labels[s_idx],
                    src_attrs=src_attrs[s_idx],
                    xt=target_features[t_idx],
                    t_pseudo=pseudo.pseudo_label[t_idx],
                    t_seen_mask=pseudo.seen_mask[t_idx],
                    t_pseudo_attrs=pseudo_attrs[t_idx])
                value, report, grads = objective_grads(params, batch, rz, cfg)
                if not np.isfinite(value):
                    raise TrainingError(
                        f"non-finite loss at epoch {epoch}, batch {n_batches}")
                sgd_step(params, grads, cfg.lr)
                sums += (report.l_c, report.l_d, report.l_r_source,
                         report.l_r_target, report.l_a)
                n_batches += 1
        except DataError as err:
            raise TrainingError(f"training diverged at epoch {epoch}, batch "
                                f"{n_batches}: {err}") from err
        means = sums / max(n_batches, 1)
        _, epoch_report = total_objective(*means, cfg.lambda1, cfg.lambda2)
        history.epochs.append(epoch_report)
        if on_epoch is not None:
            on_epoch(epoch, epoch_report)

    for name, arr in params.arrays.items():
        if not np.all(np.isfinite(arr)):
            raise TrainingError(f"training diverged: final {name} is not finite")
    history.params_checksum = _params_checksum(params)
    return params, history, pseudo


def save_history(history: TrainHistory, path):
    """Per-epoch loss log: epoch,l_c,l_d,l_r_s,l_r_t,l_a,total."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("epoch,l_c,l_d,l_r_s,l_r_t,l_a,total\n")
        for i, r in enumerate(history.epochs):
            cols = (r.l_c, r.l_d, r.l_r_source, r.l_r_target, r.l_a, r.total)
            fh.write(f"{i}," + ",".join(repr(float(c)) for c in cols) + "\n")
