"""Dataset model, on-disk formats and synthetic cross-domain data generation.

Formats (all little-endian; every text file is UTF-8 with ``\n`` newlines):
  * feature file: magic ``SROS``, u32 version=1, u64 N, u64 d, then N*d
    float32, row-major;
  * labels file: one decimal integer per line;
  * attribute CSV: ``class_id,bit,bit,...`` with 0/1 bits, dense ids;
  * ``key = value`` lines: reports, configs, specs and the run record
    ``run.txt`` (``cli``: every ``TrainConfig`` field, ``tau``,
    ``params_checksum``);
  * checkpoint (``model``): magic ``SROSCKPT``, u32 version=1, u32 layer
    count, then per layer u8 rank, u64 dims and float64 values, row-major;
  * history CSV (``trainer``): ``epoch,l_c,l_d,l_r_s,l_r_t,l_a,total``;
  * pseudo dump (``separation``): TSV of sample_id, pseudo_label,
    confidence, seen_flag.

``write_file`` is the one writer of all of them: a file appears whole or not
at all.

Evaluation-only target annotations live in a separate TargetEval object so
training-path code never sees them.
"""

import numbers
import os
import secrets
import struct
from dataclasses import MISSING, dataclass, fields
from typing import Optional

import numpy as np

from .exceptions import (ConfigError, ContractError, DataError, FormatError,
                         GenerationError)
from .numkernel import check_finite, make_rng

FEATURE_MAGIC = b"SROS"
FEATURE_VERSION = 1
# draws of the seen attribute rows before synth gives up on a table
ATTR_TABLE_TRIES = 2000


def check_matrix(a, what):
    """``check_finite(a, what)``, a float64 array; DataError unless 2-D."""
    arr = check_finite(a, what)
    if arr.ndim != 2:
        raise DataError(f"{what} must be a 2-D array, got shape {arr.shape}")
    return arr


def _check_annotations(labels, table, what, k_name):
    """DataError unless ``labels`` is a 1-D integer array each of whose
    entries indexes a row of the 2-D 0/1 ``table``."""
    if table.ndim != 2:
        raise DataError(f"{what} attribute table must be a 2-D array, got "
                        f"shape {table.shape}")
    if labels.ndim != 1 or not np.issubdtype(labels.dtype, np.integer):
        raise DataError(f"{what} labels must be a 1-D integer array, got "
                        f"{labels.dtype} of shape {labels.shape}")
    if labels.min(initial=0) < 0 or (labels.size and labels.max() >= table.shape[0]):
        raise DataError(f"{what} label outside [0, {k_name})")
    if not np.isin(table, (0, 1)).all():
        raise DataError("attribute table must be 0/1 valued")


@dataclass(frozen=True)
class SourceDataset:
    """Labeled, attribute-annotated source domain."""
    features: np.ndarray        # N_s x d_x
    labels: np.ndarray          # N_s ints in [0, k_s)
    attr_table_seen: np.ndarray  # k_s x d_a, 0/1

    def __post_init__(self):
        check_matrix(self.features, "source features")
        _check_annotations(self.labels, self.attr_table_seen, "source", "k_s")
        if self.labels.shape[0] != self.features.shape[0]:
            raise DataError("source labels / features length mismatch")

    @property
    def k_s(self):
        return self.attr_table_seen.shape[0]

    @property
    def d_a(self):
        return self.attr_table_seen.shape[1]

    def sample_attributes(self):
        """Per-sample attribute rows a_s^i = table[labels[i]]."""
        return self.attr_table_seen[self.labels].astype(np.float64)


@dataclass(frozen=True)
class TargetEval:
    """Ground truth reserved for evaluation; never handed to training code."""
    labels: np.ndarray           # N_t ints in [0, k_t)
    attr_table_full: np.ndarray  # k_t x d_a, 0/1

    def __post_init__(self):
        _check_annotations(self.labels, self.attr_table_full, "eval", "k_t")


@dataclass(frozen=True)
class TargetDataset:
    """Unlabeled target domain; ``eval_data`` is evaluation-only."""
    features: np.ndarray  # N_t x d_x
    eval_data: Optional[TargetEval] = None

    def __post_init__(self):
        check_matrix(self.features, "target features")
        if (self.eval_data is not None
                and self.eval_data.labels.shape[0] != self.features.shape[0]):
            raise DataError("target eval labels / features length mismatch")


@dataclass(frozen=True)
class SynthSpec:
    """Configuration of the synthetic cross-domain generator.

    The domain shift applied to source samples is a small rotation (Givens
    rotations by ``rotation_angle`` in random coordinate planes), a bias
    vector of norm ``bias_magnitude`` and additive Gaussian noise.
    """
    k_s: int
    k: int
    d_x: int
    d_a: int
    n_source_per_class: int
    n_target_per_class: int
    cluster_spread: float = 1.0
    rotation_angle: float = 0.15
    bias_magnitude: float = 0.3
    noise_level: float = 0.1
    min_attr_hamming: int = 2
    unseen_flip_bits: int = 3
    seed: int = 0

    @property
    def k_t(self):
        return self.k_s + self.k

    def validate(self):
        check_field_types(self, ContractError)
        # written so that NaN fails every range check
        if self.k_s < 1 or self.k < 1:
            raise ContractError("k_s and k must be positive")
        if self.d_x < 1 or self.d_a < 1:
            raise ContractError("d_x and d_a must be positive")
        if self.seed < 0:
            raise ContractError("seed must be >= 0")
        if not 0 < self.cluster_spread < np.inf:
            raise ContractError("cluster_spread must be finite and positive")
        if not (0 <= self.bias_magnitude < np.inf
                and 0 <= self.noise_level < np.inf):
            raise ContractError("bias_magnitude and noise_level must be "
                                "finite and >= 0")
        if not -np.inf < self.rotation_angle < np.inf:
            raise ContractError("rotation_angle must be finite")
        if self.min_attr_hamming < 1:
            raise ContractError("min_attr_hamming must be >= 1")
        if self.n_source_per_class < 1 or self.n_target_per_class < 1:
            raise ContractError("samples per class must be positive")
        if not (self.min_attr_hamming <= self.unseen_flip_bits <= self.d_a):
            raise ContractError(
                "unseen_flip_bits must lie in [min_attr_hamming, d_a]")


def _random_attr_table(rng, k_s, k, d_a, min_hamming, flip_bits):
    """Sample a (k_s + k) x d_a binary table. Seen rows are drawn uniformly and
    kept well separated; each unseen row is a seen row with ``flip_bits`` bits
    flipped, so every unseen signature stays within reach of the seen ones
    while remaining distinct."""
    k_t = k_s + k
    if 2 ** d_a < k_t:
        raise GenerationError(
            f"cannot place {k_t} distinct binary rows in d_a={d_a} bits; increase d_a")
    seen_sep = max(min_hamming, flip_bits + 1)
    for _ in range(ATTR_TABLE_TRIES):
        seen = rng.integers(0, 2, size=(k_s, d_a))
        diff = (seen[:, None, :] != seen[None, :, :]).sum(axis=2)
        np.fill_diagonal(diff, seen_sep)
        if diff.min() < seen_sep:
            continue
        unseen = []
        for j in range(k):
            row = seen[j % k_s].copy()
            idx = rng.choice(d_a, size=flip_bits, replace=False)
            row[idx] ^= 1
            unseen.append(row)
        table = np.vstack([seen, np.asarray(unseen)])
        diff = (table[:, None, :] != table[None, :, :]).sum(axis=2)
        np.fill_diagonal(diff, min_hamming)
        if diff.min() >= min_hamming:
            return table.astype(np.int64)
    raise GenerationError(
        f"could not find {k_t} attribute rows with pairwise Hamming distance >= "
        f"{min_hamming} in d_a={d_a} bits; increase d_a")


def _rotation_matrix(rng, d_x, angle):
    """Product of Givens rotations by ``angle`` over a random disjoint pairing
    of coordinates. angle=0 gives the identity."""
    rot = np.eye(d_x)
    if angle == 0.0:
        return rot
    perm = rng.permutation(d_x)
    c, s = np.cos(angle), np.sin(angle)
    for i in range(0, d_x - 1, 2):
        a, b = perm[i], perm[i + 1]
        g = np.eye(d_x)
        g[a, a] = c
        g[b, b] = c
        g[a, b] = -s
        g[b, a] = s
        rot = g @ rot
    return rot


def synth_generate(spec: SynthSpec):
    """Generate a (SourceDataset, TargetDataset) pair.

    Class prototypes are a linear embedding of the class attribute rows, so the
    visual geometry carries semantic structure and attribute recovery for
    unseen classes is learnable. Prototypes are rescaled until every pair is at
    least 8 * cluster_spread apart.
    """
    spec.validate()
    rng = make_rng(spec.seed)
    k_t, d_x, d_a = spec.k_t, spec.d_x, spec.d_a

    attr_table = _random_attr_table(rng, spec.k_s, spec.k, d_a,
                                    spec.min_attr_hamming, spec.unseen_flip_bits)

    embed = rng.normal(size=(d_x, d_a)) / np.sqrt(d_a)
    protos = (attr_table - 0.5) @ embed.T
    # small non-semantic component; kept well below the semantic signal so
    # attribute recovery for unseen classes stays learnable
    protos += rng.normal(size=protos.shape) * 0.05
    diff = protos[:, None, :] - protos[None, :, :]
    dist = np.sqrt((diff * diff).sum(axis=2))
    np.fill_diagonal(dist, np.inf)
    min_dist = dist.min()
    if min_dist <= 0.0:
        raise GenerationError("coincident class prototypes; increase d_a or min_attr_hamming")
    protos *= (8.0 * spec.cluster_spread) / min_dist

    # target: raw prototype clusters, all k_t classes
    n_t = spec.n_target_per_class
    t_labels = np.repeat(np.arange(k_t), n_t)
    t_feats = protos[t_labels] + rng.normal(size=(k_t * n_t, d_x)) * spec.cluster_spread

    # source: first k_s classes, then rotation + bias + noise
    rot = _rotation_matrix(rng, d_x, spec.rotation_angle)
    bias = rng.normal(size=d_x)
    nb = np.linalg.norm(bias)
    bias = bias * (spec.bias_magnitude / nb) if nb > 0 else bias * 0.0
    n_s = spec.n_source_per_class
    s_labels = np.repeat(np.arange(spec.k_s), n_s)
    s_base = protos[s_labels] + rng.normal(size=(spec.k_s * n_s, d_x)) * spec.cluster_spread
    s_feats = s_base @ rot.T + bias
    if spec.noise_level > 0.0:
        s_feats = s_feats + rng.normal(size=s_feats.shape) * spec.noise_level

    if not (np.all(np.isfinite(s_feats)) and np.all(np.isfinite(t_feats))):
        raise GenerationError("features overflow; reduce cluster_spread, "
                              "bias_magnitude or noise_level")
    source = SourceDataset(features=s_feats, labels=s_labels,
                           attr_table_seen=attr_table[: spec.k_s])
    target = TargetDataset(features=t_feats,
                           eval_data=TargetEval(labels=t_labels,
                                                attr_table_full=attr_table))
    return source, target


def default_synth_spec(seed=7):
    """Desk-scale default: 6 seen + 3 unseen classes, moderate shift."""
    return SynthSpec(k_s=6, k=3, d_x=32, d_a=12,
                     n_source_per_class=60, n_target_per_class=60,
                     cluster_spread=1.0, rotation_angle=0.45,
                     bias_magnitude=1.0, noise_level=0.1,
                     min_attr_hamming=2, unseen_flip_bits=2, seed=seed)


# ---------------------------------------------------------------------------
# the file writer; feature / label / attribute files

def write_file(path, data):
    """Write ``data`` to ``path`` whole or not at all: a str as UTF-8, a
    bytes-like object, or a list of bytes-like chunks in order. The data go
    to a temp file beside ``path``, created with mode 0666 less the umask,
    which is then renamed over ``path``; on failure the temp file is removed
    and ``path`` is left as it was."""
    if isinstance(data, str):
        data = data.encode("utf-8")
    tmp = f"{os.path.abspath(path)}.{secrets.token_hex(8)}.tmp"
    fd = os.open(tmp, os.O_CREAT | os.O_EXCL | os.O_WRONLY, 0o666)
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.writelines(data if isinstance(data, list) else [data])
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)


def _feature_file(matrix, what):
    """The chunks of a feature file holding ``matrix``; DataError unless it
    is a finite 2-D array (``check_matrix``) that fits float32."""
    matrix = check_matrix(matrix, what)
    with np.errstate(over="ignore"):
        payload = matrix.astype("<f4", order="C")  # written from its buffer
    if not np.all(np.isfinite(payload)):
        raise DataError(f"{what} overflow float32 (a magnitude above "
                        f"{float(np.finfo(np.float32).max):.4g})")
    return [FEATURE_MAGIC, struct.pack("<IQQ", FEATURE_VERSION, *payload.shape),
            payload]


def read_struct(fh, fmt, path, field):
    """``struct.unpack(fmt)`` of the next bytes of the binary file ``fh``; a
    file that ends first raises FormatError naming ``field``."""
    at = fh.tell()
    size = struct.calcsize(fmt)
    raw = fh.read(size)
    if len(raw) != size:
        raise FormatError(f"{path}: file ends inside {field} at byte {at} "
                          f"({len(raw)} of {size} bytes)")
    return struct.unpack(fmt, raw)


def load_features(path):
    """Load a feature matrix from a binary ``SROS`` feature file."""
    with open(path, "rb") as fh:
        magic = fh.read(4)
        if magic != FEATURE_MAGIC:
            raise FormatError(f"{path}: bad magic at byte 0 (got {magic!r})")
        (version,) = read_struct(fh, "<I", path, "version")
        if version != FEATURE_VERSION:
            raise FormatError(f"{path}: unsupported version {version} at byte 4")
        n, d = read_struct(fh, "<QQ", path, "shape (rows, columns)")
        raw = fh.read()
    expected = n * d * 4
    if len(raw) != expected:
        raise FormatError(f"{path}: payload length {len(raw)} at byte 24, expected {expected}")
    data = np.frombuffer(raw, dtype="<f4").astype(np.float64).reshape(n, d)
    if not np.all(np.isfinite(data)):
        raise FormatError(f"{path}: non-finite feature values")
    return data


def _text_lines(path):
    """(line number, stripped line) of each non-blank line of a text file."""
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if line:
                yield lineno, line


def save_labels(labels, path):
    write_file(path, "".join(f"{int(v)}\n" for v in np.asarray(labels).ravel()))


def load_labels(path):
    out = []
    for lineno, line in _text_lines(path):
        try:
            out.append(int(line))
        except ValueError:
            raise FormatError(f"{path}: bad label at line {lineno}: {line!r}") from None
    return np.asarray(out, dtype=np.int64)


def save_attribute_table(table, path):
    rows = (",".join(str(int(b)) for b in row) for row in np.asarray(table))
    write_file(path, "".join(f"{cid},{bits}\n" for cid, bits in enumerate(rows)))


def load_attribute_table(path):
    """CSV ``class_id,bit,...`` with dense ids 0..K-1; returns the K x d_a
    binary table sorted by class id."""
    entries = {}
    width = None
    for lineno, line in _text_lines(path):
        toks = line.split(",")
        try:
            cid = int(toks[0])
            bits = [int(t) for t in toks[1:]]
        except ValueError:
            raise FormatError(f"{path}: bad integer at line {lineno}") from None
        if any(b not in (0, 1) for b in bits):
            raise FormatError(f"{path}: non-binary attribute at line {lineno}")
        if cid in entries:
            raise FormatError(f"{path}: duplicate class id {cid} at line {lineno}")
        if width is None:
            width = len(bits)
        elif len(bits) != width:
            raise FormatError(f"{path}: ragged row at line {lineno}")
        entries[cid] = bits
    if not entries:
        raise FormatError(f"{path}: empty attribute table")
    k = len(entries)
    missing = sorted(set(range(k)) - set(entries))
    if missing:
        raise FormatError(f"{path}: missing class ids {missing}; ids must be dense 0..K-1")
    return np.asarray([entries[c] for c in range(k)], dtype=np.int64)


# ---------------------------------------------------------------------------
# dataset directory layout

SOURCE_FEATURES = "source_features.sros"
SOURCE_LABELS = "source_labels.txt"
SOURCE_ATTRS = "source_attributes.csv"
TARGET_FEATURES = "target_features.sros"
EVAL_LABELS = "target_eval_labels.txt"
EVAL_ATTRS = "target_eval_attributes.csv"


def save_dataset(source: SourceDataset, target: TargetDataset, out_dir):
    """Write the dataset directory; features that do not fit float32 raise
    DataError before anything is created. A target without eval data
    removes the eval files a previous dataset left in ``out_dir``."""
    source_file = _feature_file(source.features, "source features")
    target_file = _feature_file(target.features, "target features")
    os.makedirs(out_dir, exist_ok=True)
    write_file(os.path.join(out_dir, SOURCE_FEATURES), source_file)
    save_labels(source.labels, os.path.join(out_dir, SOURCE_LABELS))
    save_attribute_table(source.attr_table_seen, os.path.join(out_dir, SOURCE_ATTRS))
    write_file(os.path.join(out_dir, TARGET_FEATURES), target_file)
    if target.eval_data is not None:
        save_labels(target.eval_data.labels, os.path.join(out_dir, EVAL_LABELS))
        save_attribute_table(target.eval_data.attr_table_full,
                             os.path.join(out_dir, EVAL_ATTRS))
    else:
        for name in (EVAL_LABELS, EVAL_ATTRS):
            try:
                os.remove(os.path.join(out_dir, name))
            except FileNotFoundError:
                pass


def load_source(data_dir):
    feats = load_features(os.path.join(data_dir, SOURCE_FEATURES))
    labels = load_labels(os.path.join(data_dir, SOURCE_LABELS))
    table = load_attribute_table(os.path.join(data_dir, SOURCE_ATTRS))
    return SourceDataset(features=feats, labels=labels, attr_table_seen=table)


def load_target(data_dir, with_eval=False):
    feats = load_features(os.path.join(data_dir, TARGET_FEATURES))
    eval_data = None
    if with_eval:
        labels = load_labels(os.path.join(data_dir, EVAL_LABELS))
        table = load_attribute_table(os.path.join(data_dir, EVAL_ATTRS))
        eval_data = TargetEval(labels=labels, attr_table_full=table)
    return TargetDataset(features=feats, eval_data=eval_data)


# ---------------------------------------------------------------------------
# key = value files (reports, configs, specs)

def write_kv(pairs, path):
    """Write ``key = value`` lines; deterministic byte-for-byte output."""
    write_file(path, "".join(f"{key} = {value}\n" for key, value in pairs))


def read_kv(path):
    """The ``(key, value)`` pairs of a ``key = value`` file, skipping blank
    and ``#`` lines; FormatError on a line without ``=`` or a repeated key."""
    pairs = {}
    for lineno, line in _text_lines(path):
        if line.startswith("#"):
            continue
        if "=" not in line:
            raise FormatError(f"{path}: expected 'key = value' at line {lineno}")
        key, _, value = (part.strip() for part in line.partition("="))
        if key in pairs:
            raise FormatError(f"{path}: key {key!r} is given more than once "
                              f"at line {lineno}")
        pairs[key] = value
    return list(pairs.items())


def _parse_bool(text):
    if text not in ("true", "false"):
        raise ValueError("expected true or false")
    return text == "true"


_FIELD_PARSERS = {int: int, float: float, bool: _parse_bool}
_FIELD_FORMATS = {int: lambda v: str(int(v)), float: lambda v: repr(float(v)),
                  bool: lambda v: "true" if v else "false"}


# the values each field type takes; a bool is never an int or a float
_FIELD_KINDS = {int: numbers.Integral, float: numbers.Real, bool: (bool, np.bool_)}


def check_field_types(obj, error):
    """Raise ``error`` unless each int, float and bool field of dataclass
    ``obj`` holds a value of its type: a ``numbers.Integral`` for an int, a
    ``numbers.Real`` for a float (neither a bool), a ``bool`` or ``np.bool_``
    for a bool."""
    for f in fields(obj):
        if f.type not in _FIELD_KINDS:
            continue
        value = getattr(obj, f.name)
        is_bool = isinstance(value, (bool, np.bool_))
        if is_bool != (f.type is bool) or not isinstance(value, _FIELD_KINDS[f.type]):
            raise error(f"{f.name} must be {f.type.__name__}, got {value!r}")


def fields_to_kv(obj):
    """``(key, value)`` pairs of a dataclass's int, float and bool fields in
    declaration order; floats are written by ``repr`` so they read back exactly."""
    return [(f.name, _FIELD_FORMATS[f.type](getattr(obj, f.name)))
            for f in fields(obj) if f.type in _FIELD_FORMATS]


def parse_field(name, kind, text):
    """``text`` parsed as a value of field type ``kind`` (int, float or bool);
    a ValueError names ``name`` if it is malformed."""
    try:
        return _FIELD_PARSERS[kind](text)
    except ValueError:
        raise ValueError(f"{name} = {text!r} is not a valid {kind.__name__}") from None


def fields_from_kv(values, cls):
    """The int, float and bool fields of dataclass ``cls`` parsed from the
    mapping ``values``; KeyError if one is missing, ValueError naming the
    field if one is malformed."""
    return {f.name: parse_field(f.name, f.type, values[f.name])
            for f in fields(cls) if f.type in _FIELD_PARSERS}


def read_dataclass(path, cls):
    """An instance of dataclass ``cls`` from a ``key = value`` file.

    Each value is parsed by its field's type: ``int``, ``float``, or ``bool``
    written ``true``/``false``. Keys absent from the file take the field
    defaults. Unknown keys, malformed values and missing required fields
    raise ConfigError; ``read_kv`` rejects a repeated key (FormatError).
    """
    types = {f.name: f.type for f in fields(cls)}
    kwargs = {}
    for key, value in read_kv(path):
        if key not in types:
            raise ConfigError(f"{path}: unknown key {key!r}")
        try:
            kwargs[key] = parse_field(key, types[key], value)
        except ValueError as err:
            raise ConfigError(f"{path}: {err}") from None
    missing = [f.name for f in fields(cls) if f.name not in kwargs
               and f.default is MISSING and f.default_factory is MISSING]
    if missing:
        raise ConfigError(f"{path}: missing required key(s) {', '.join(missing)}")
    return cls(**kwargs)
