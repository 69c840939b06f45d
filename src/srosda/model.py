"""The four trainable networks and their forward passes.

G_Z: d_x -> 1024 -> 512 (ReLU hidden)
G_A: 512 -> 256 -> d_a (ReLU hidden, logistic output)
C:   (512 + d_a) -> 256 -> k_s + 1
D:   (512 + d_a) -> 256 -> 2

Each network has one forward definition, ``tape_forward_*``: two fused
``autodiff.affine`` nodes, the first with ReLU. ``forward_*`` validate their
input and run that forward on the raw arrays: constants, so no tape is kept.
Weights initialize uniform(+-sqrt(6 / fan_in)), biases zero.

``forward_gz(params, x, keep=True)`` keeps its embedding in a one-entry,
one-shot slot, so that the next plain ``forward_gz`` over byte-equal rows with
byte-equal G_Z weights returns it instead of running the pass again (a
pseudo-label refresh followed by a report embeds the target once). The kept
embedding is read-only, so ``forward_gz`` may return a read-only array.
"""

import hashlib
import math
import os
import struct
import tempfile
from dataclasses import dataclass
from typing import Dict

import numpy as np

from . import autodiff as ad
from .dataio import read_struct
from .exceptions import ContractError, FormatError
from .numkernel import check_finite, make_rng

Z_DIM = 512
GZ_HIDDEN = 1024
HEAD_HIDDEN = 256

CHECKPOINT_MAGIC = b"SROSCKPT"
CHECKPOINT_VERSION = 1

@dataclass
class ModelParams:
    arrays: Dict[str, np.ndarray]

    @property
    def d_x(self):
        return self.arrays["gz_w1"].shape[0]

    @property
    def d_a(self):
        return self.arrays["ga_w2"].shape[1]

    @property
    def k_s(self):
        return self.arrays["c_w2"].shape[1] - 1


def _layer_shapes(d_x, d_a, k_s):
    joint = Z_DIM + d_a
    return {
        "gz_w1": (d_x, GZ_HIDDEN), "gz_b1": (GZ_HIDDEN,),
        "gz_w2": (GZ_HIDDEN, Z_DIM), "gz_b2": (Z_DIM,),
        "ga_w1": (Z_DIM, HEAD_HIDDEN), "ga_b1": (HEAD_HIDDEN,),
        "ga_w2": (HEAD_HIDDEN, d_a), "ga_b2": (d_a,),
        "c_w1": (joint, HEAD_HIDDEN), "c_b1": (HEAD_HIDDEN,),
        "c_w2": (HEAD_HIDDEN, k_s + 1), "c_b2": (k_s + 1,),
        "d_w1": (joint, HEAD_HIDDEN), "d_b1": (HEAD_HIDDEN,),
        "d_w2": (HEAD_HIDDEN, 2), "d_b2": (2,),
    }


# declaration order of the parameter arrays
LAYER_NAMES = tuple(_layer_shapes(1, 1, 1))


def init_params(d_x, d_a, k_s, seed=0) -> ModelParams:
    if d_x < 1 or d_a < 1 or k_s < 1:
        raise ContractError("dimensions must be positive")
    rng = make_rng(seed)
    arrays = {}
    for name, shape in _layer_shapes(d_x, d_a, k_s).items():
        if name.endswith(("b1", "b2")):
            arrays[name] = np.zeros(shape)
        else:
            bound = np.sqrt(6.0 / shape[0])
            arrays[name] = rng.uniform(-bound, bound, size=shape)
    return ModelParams(arrays)


# ---------------------------------------------------------------------------
# forwards

def param_tensors(params: ModelParams) -> Dict[str, ad.Tensor]:
    return {name: ad.Tensor(arr) for name, arr in params.arrays.items()}


def _two_layers(pt, x, net):
    """``net``'s w2/b2 layer over its ReLU w1/b1 layer."""
    h = ad.affine(x, pt[net + "_w1"], pt[net + "_b1"], relu=True)
    return ad.affine(h, pt[net + "_w2"], pt[net + "_b2"])


def tape_forward_gz(pt, x):
    return _two_layers(pt, x, "gz")


def tape_forward_ga(pt, z):
    return ad.sigmoid(_two_layers(pt, z, "ga"))


def tape_forward_c(pt, f):
    return _two_layers(pt, f, "c")


def tape_forward_d_logits(pt, f):
    return _two_layers(pt, f, "d")


def _check_input(x, dim, what):
    x = check_finite(x, what)
    if x.ndim != 2 or x.shape[1] != dim:
        raise ContractError(f"{what} must be (n, {dim}), got {x.shape}")
    return x


_GZ_LAYERS = tuple(name for name in LAYER_NAMES if name.startswith("gz_"))

# (copy of the rows, G_Z digest, read-only z) of the last keep=True pass not
# yet handed out, or None
_kept = None


def _gz_digest(arrays):
    """sha256 of the G_Z arrays' dtypes, shapes and bytes, hashed from their
    buffers (no copy of a contiguous array)."""
    h = hashlib.sha256()
    for name in _GZ_LAYERS:
        arr = np.ascontiguousarray(arrays[name])
        h.update(f"{arr.dtype.str}{arr.shape}".encode())
        h.update(arr)
    return h.digest()


def forward_gz(params: ModelParams, x, keep=False):
    """G_Z's embedding of the rows of ``x``.

    With ``keep=True`` the slot is emptied, the pass runs and its read-only
    result is kept (and returned) for the next plain call on the same rows
    and weights, which returns it once. Without, a matching kept result is
    returned in place of a pass; anything else runs the pass.
    """
    global _kept
    x = _check_input(x, params.d_x, "G_Z input")
    if keep:
        _kept = None  # the old entry is freed before the pass allocates
    # the rows are compared first, so the weights are hashed only on a match
    elif (_kept is not None
          and np.array_equal(_kept[0].view(np.uint64), x.view(np.uint64))
          and _kept[1] == _gz_digest(params.arrays)):
        z, _kept = _kept[2], None
        return z
    z = tape_forward_gz(params.arrays, x).value
    if keep:
        z.flags.writeable = False
        _kept = (x.copy(), _gz_digest(params.arrays), z)
    return z


def forward_ga(params: ModelParams, z):
    z = _check_input(z, Z_DIM, "G_A input")
    return tape_forward_ga(params.arrays, z).value


def forward_c(params: ModelParams, f):
    f = _check_input(f, Z_DIM + params.d_a, "C input")
    return tape_forward_c(params.arrays, f).value


def forward_d(params: ModelParams, f):
    """Softmaxed (seen, unseen) probability pairs; rows sum to 1."""
    f = _check_input(f, Z_DIM + params.d_a, "D input")
    logits = tape_forward_d_logits(params.arrays, f).value
    shifted = np.exp(logits - logits.max(axis=1, keepdims=True))
    return shifted / shifted.sum(axis=1, keepdims=True)


# ---------------------------------------------------------------------------
# checkpoints

def save_checkpoint(params: ModelParams, path):
    """Write-temp-then-rename, so a failed write never leaves a torn file."""
    fd, tmp = tempfile.mkstemp(dir=os.path.dirname(os.path.abspath(path)),
                               suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(CHECKPOINT_MAGIC)
            fh.write(struct.pack("<I", CHECKPOINT_VERSION))
            fh.write(struct.pack("<I", len(LAYER_NAMES)))
            for name in LAYER_NAMES:
                arr = params.arrays[name]
                fh.write(struct.pack("<B", arr.ndim))
                for dim in arr.shape:
                    fh.write(struct.pack("<Q", dim))
                fh.write(arr.astype("<f8").tobytes())
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)


def load_checkpoint(path):
    try:
        fh = open(path, "rb")
    except OSError as err:
        raise FormatError(f"cannot open checkpoint {path}: {err}") from None
    with fh:
        size = os.fstat(fh.fileno()).st_size
        magic = fh.read(8)
        if magic != CHECKPOINT_MAGIC:
            raise FormatError(f"{path}: bad checkpoint magic {magic!r}")
        (version,) = read_struct(fh, "<I", path, "checkpoint version")
        if version != CHECKPOINT_VERSION:
            raise FormatError(f"{path}: unsupported checkpoint version {version}")
        (count,) = read_struct(fh, "<I", path, "layer count")
        if count != len(LAYER_NAMES):
            raise FormatError(f"{path}: expected {len(LAYER_NAMES)} layers, got {count}")
        arrays = {}
        for name, template in _layer_shapes(1, 1, 1).items():
            (ndim,) = read_struct(fh, "<B", path, f"rank of layer {name}")
            if ndim != len(template):
                raise FormatError(f"{path}: layer {name} has rank {ndim}, "
                                  f"expected {len(template)}")
            shape = read_struct(fh, f"<{ndim}Q", path, f"shape of layer {name}")
            n_bytes = math.prod(shape) * 8
            if n_bytes > size - fh.tell():
                raise FormatError(f"{path}: truncated layer {name}")
            raw = fh.read(n_bytes)
            arrays[name] = np.frombuffer(raw, dtype="<f8").reshape(shape).copy()
            if not np.all(np.isfinite(arrays[name])):
                raise FormatError(f"{path}: layer {name} has non-finite values")
        if fh.tell() != size:
            raise FormatError(f"{path}: {size - fh.tell()} trailing bytes after "
                              f"the last layer")
    params = ModelParams(arrays)
    expected = _layer_shapes(params.d_x, params.d_a, params.k_s)
    for name, shape in expected.items():
        if params.arrays[name].shape != shape:
            raise FormatError(f"{path}: inconsistent shape for layer {name}")
    return params
