"""Network construction and whole-network forward/backward plumbing.

A network is a flat list of steps executed in order, each with the same
forward/backward/summary interface.  Two steps implement each nested
shortcut: a ShortcutSave keeps the current tensor, and a ResidualAddNode
later sums that tensor into the running one.  The encoder saves the input
and every pre-code layer; the mirrored decoder adds them back
innermost-first, finishing with the input-level shortcut, then the output
head.

Shortcuts are identity maps: switching them off or truncating them removes
only the save and add steps, never a parameterized layer, so the parameter
set of the residual and regular variants of one spec is identical.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, fields, replace

import numpy as np

from .layers import (
    ACTIVATION_KINDS,
    BN_MOMENTUM,
    Activation,
    BatchNormLayer,
    DenseLayer,
    DropoutLayer,
    ResidualAddNode,
    ShortcutSave,
)
from .matrix import (
    Matrix,
    Rng,
    checked_entry,
    checked_json,
    checked_json_list,
    checked_names,
    field_types,
)

RESIDUAL_POST_OPS = ("none", "activation", "activation_batchnorm")

@dataclass(frozen=True)
class NetworkSpec:
    """Declarative description of one network.

    nnode lists the encoder widths outermost to innermost; the last entry is
    the code layer.  The decoder mirrors nnode[-2::-1] and finishes with a
    layer of width nfea before the input-level shortcut.  residual is "off",
    "full", or the number of outermost shortcuts to keep.
    """

    nfea: int
    nnode: tuple[int, ...]
    k: int
    acts: tuple[str, ...] | str = "elu"
    output_activation: str = "linear"
    dropout_rate: float = 0.1
    residual: int | str = "full"
    residual_post_op: str = "activation_batchnorm"
    output_option: int = 1
    use_batchnorm: bool = True
    elu_alpha: float = 1.0
    dropout_placement: str = "code"   # "code" (innermost layer only) or "all"

    @property
    def n_shortcut_pairs(self) -> int:
        """Available identity pairs: one per hidden mirror plus the input pair."""
        return len(self.nnode)

    def act_list(self) -> tuple[str, ...]:
        if isinstance(self.acts, str):
            return (self.acts,) * len(self.nnode)
        return tuple(self.acts)

    def residual_count(self) -> int:
        if self.residual == "off":
            return 0
        if self.residual == "full":
            return self.n_shortcut_pairs
        return self.residual

    def __post_init__(self):
        """Each field's type, then its range, checked when made; a ValueError names it."""
        for field_name, kind in field_types(NetworkSpec):
            _checked_field(field_name, kind, getattr(self, field_name), field_name)
        if len(self.nnode) == 0:
            raise ValueError("nnode must be non-empty")
        if any(w < 1 for w in self.nnode):
            raise ValueError(f"all widths must be >= 1, got {self.nnode}")
        if self.nfea < 1 or self.k < 1:
            raise ValueError(f"nfea and k must be >= 1, got nfea={self.nfea}, k={self.k}")
        acts = self.act_list()
        if len(acts) != len(self.nnode):
            raise ValueError(f"acts has {len(acts)} entries for {len(self.nnode)} layers")
        for a in acts + (self.output_activation,):
            if a not in ACTIVATION_KINDS:
                raise ValueError(f"unknown activation {a!r}")
        if not 0.0 <= self.dropout_rate < 1.0:
            raise ValueError(f"dropout_rate must be in [0, 1), got {self.dropout_rate}")
        if not 0 <= self.residual_count() <= self.n_shortcut_pairs:
            raise ValueError(f"residual count {self.residual} out of range "
                             f"0..{self.n_shortcut_pairs}")
        if self.residual_post_op not in RESIDUAL_POST_OPS:
            raise ValueError(f"unknown residual_post_op {self.residual_post_op!r}")
        if self.output_option not in (1, 2):
            raise ValueError(f"output_option must be 1 or 2, got {self.output_option}")
        if not 0.0 < self.elu_alpha < math.inf:
            raise ValueError(f"elu_alpha must be finite and > 0, got {self.elu_alpha}")
        if self.dropout_placement not in ("code", "all"):
            raise ValueError(f"dropout_placement must be 'code' or 'all', "
                             f"got {self.dropout_placement!r}")

    def to_dict(self) -> dict:
        return {**asdict(self), "nnode": list(self.nnode), "acts": list(self.act_list())}

    @classmethod
    def from_dict(cls, d: dict, where: str = "spec",
                  keys: dict[str, str] | None = None) -> "NetworkSpec":
        """Inverse of to_dict, and the one reader of a spec from JSON: each
        field's JSON type is checked, never coerced, and a ValueError names
        it as where.key, then a range error as "invalid {where} config".  Fields
        other than nfea, nnode and k default when absent; keys maps a field to
        the document's key, where they differ."""
        key_of = {f.name: (keys or {}).get(f.name, f.name) for f in fields(cls)}
        missing = [key_of[f] for f in ("nfea", "nnode", "k") if key_of[f] not in d]
        if missing:
            raise ValueError(f"{where} is missing fields {missing}")
        unknown = sorted(set(d) - set(key_of.values()))
        if unknown:
            raise ValueError(f"{where} has unknown fields {unknown}")
        values = {field_name: _checked_field(field_name, kind, d[key_of[field_name]],
                                             f"{where}.{key_of[field_name]}")
                  for field_name, kind in field_types(cls) if key_of[field_name] in d}
        try:
            return cls(**values)
        except ValueError as exc:
            raise ValueError(f"invalid {where} config: {exc}") from None


def _checked_field(field_name: str, kind, value, name: str):
    """A spec field's value as its type (see checked_json): nnode a list of integers, as a
    tuple, acts one name or a list of names, residual "full", "off" or an integer."""
    if field_name == "nnode":
        return tuple(checked_json_list(value, int, name))
    if field_name == "acts":
        return checked_names(value, name)
    if field_name == "residual":
        kind, name = ((str, name) if value in ("full", "off") else
                      (int, f'{name}, if not "full" or "off",'))
    return checked_json(value, kind, name)


@dataclass(frozen=True)
class ShortcutPair:
    """One wiring-table entry; slot 0 is the outermost (input-level) pair."""

    slot: int
    width: int
    add_index: int


@dataclass
class Predictions:
    """Forward output: k target columns, plus the input reconstruction for option 2."""

    y: Matrix
    reconstruction: Matrix | None
    head: Matrix


@dataclass
class Param:
    """One trainable array and its gradient buffer.

    Names count only state-carrying layers, so they are stable across
    residual on/off/truncated variants of the same spec.
    """

    name: str
    value: np.ndarray
    grad: np.ndarray


class Network:
    """A realized layer graph with residual wiring; its state is two flat vectors.

    Every trainable array and its gradient buffer is a view into flat.value
    and flat.grad, laid out in parameters() order, and the optimizer is bound
    to that one Param.  Every batch-norm layer's running_mean and running_var
    is a view into net.running, and its batch_mean and batch_var a view into
    a second vector of the same layout; a train-mode forward blends the batch
    stats into the running ones with two in-place updates for the whole
    network, at the constant momentum BN_MOMENTUM.  The named views that
    parameters(), get_state, set_state and to_dict read are built once here.
    """

    def __init__(self, spec: NetworkSpec, steps: list, rng: Rng):
        self.spec = spec
        self.steps = steps
        self.shortcuts = sorted(   # ordered outermost first
            (ShortcutPair(step.slot, step.save.width, i) for i, step in enumerate(steps)
             if isinstance(step, ResidualAddNode)), key=lambda pair: pair.slot)
        self.rng = rng
        layers = [step for step in steps if isinstance(step, (DenseLayer, BatchNormLayer))]
        stateful = [(f"L{i:03d}.{'dense' if isinstance(layer, DenseLayer) else 'bn'}", layer)
                    for i, layer in enumerate(layers)]
        self.flat = Param("flat", *_pack([(layer, attr, "d" + attr) for layer in layers
                                          for attr in layer.PARAMS]))
        stats = [(name, layer, f"running_{stat}") for name, layer in stateful
                 if isinstance(layer, BatchNormLayer) for stat in ("mean", "var")]
        self.running, self._batch_stats = _pack([(bn, attr, attr.replace("running", "batch"))
                                                 for _, bn, attr in stats])
        self._params = [Param(f"{name}.{attr}", getattr(layer, attr), getattr(layer, "d" + attr))
                        for name, layer in stateful for attr in layer.PARAMS]
        self._views = {p.name: p.value for p in self._params}
        self._views.update({f"{name}.{attr}": getattr(bn, attr) for name, bn, attr in stats})

    # -- forward / backward -------------------------------------------------

    def forward(self, x: Matrix, mode: str = "infer", trace: dict | None = None) -> Predictions:
        if mode not in ("train", "infer"):
            raise ValueError(f"mode must be 'train' or 'infer', got {mode!r}")
        if x.ndim != 2 or x.shape[1] != self.spec.nfea:
            raise ValueError(f"forward expects (n, {self.spec.nfea}) input, got {x.shape}")
        train = mode == "train"
        cur = x
        for i, step in enumerate(self.steps):
            cur = step.forward(cur, train, self.rng)
            if trace is not None:
                trace[i] = cur
        if train:   # momentum * running + (1 - momentum) * batch, for every layer at once
            self.running *= BN_MOMENTUM
            self.running += (1.0 - BN_MOMENTUM) * self._batch_stats
        if self.spec.output_option == 2:
            k = self.spec.k
            return Predictions(y=cur[:, :k], reconstruction=cur[:, k:], head=cur)
        return Predictions(y=cur, reconstruction=None, head=cur)

    def backward(self, head_gradient: Matrix, trace: dict | None = None) -> Matrix:
        """Backpropagate from the head; fills every parameter's grad buffer.

        Shortcut branches accumulate additively: the add step hands the
        upstream gradient to both its deep branch and its save step, and the
        save step merges it back into the encode path.  A trace dict gets
        the gradient with respect to each step i's input under i, and per
        shortcut slot the gradient at the add and at the save step.
        Returns the gradient with respect to the network input.
        """
        g = head_gradient
        for i in range(len(self.steps) - 1, -1, -1):
            g = self.steps[i].backward(g)
            if trace is not None:
                trace[i] = g
        if trace is not None:
            for pair in self.shortcuts:
                trace[("add", pair.slot)] = trace[pair.add_index]
                trace[("save", pair.slot)] = self.steps[pair.add_index].save.grad
        return g

    # -- parameters -----------------------------------------------------------

    def parameters(self) -> list[Param]:
        """Each trainable array and its gradient buffer, named, in flat order."""
        return list(self._params)

    def count_parameters(self) -> int:
        return self.flat.value.size

    def get_state(self) -> dict[str, np.ndarray]:
        """Copy of all trainable arrays plus batch-norm running stats."""
        return {name: arr.copy() for name, arr in self._views.items()}

    def set_state(self, state: dict[str, np.ndarray]) -> None:
        """Load a get_state() dict; every name and shape must match this network."""
        arrays = self._views
        unknown = sorted(set(state) - set(arrays))
        if unknown:
            raise ValueError(f"state has parameters this network lacks: {unknown}")
        for name, arr in arrays.items():
            if name not in state:
                raise ValueError(f"state is missing parameter {name!r}")
            if np.shape(state[name]) != arr.shape:
                raise ValueError(f"parameter {name!r} has shape {np.shape(state[name])}, "
                                 f"network expects {arr.shape}")
        for name, arr in arrays.items():
            arr[...] = state[name]

    # -- structure --------------------------------------------------------------

    def truncate_residuals(self, n_outermost: int) -> "Network":
        """Keep only the n outermost shortcuts; parameters are copied over.

        Slot 0 (the input-level pair) is the outermost and is counted first.
        n may be any count the spec takes, 0..n_shortcut_pairs.
        """
        new = build_network(replace(self.spec, residual=n_outermost), rng=Rng(0))
        new.set_state(self.get_state())
        return new

    # -- serialization -------------------------------------------------------------

    def layer_summary(self) -> list[dict]:
        return [step.summary() for step in self.steps]

    def to_dict(self) -> dict:
        state = self.get_state()
        return {
            "format": "resae-network",
            "version": 1,
            "spec": self.spec.to_dict(),
            "layers": self.layer_summary(),
            "parameter_count": self.count_parameters(),
            "weights": {name: {"shape": list(arr.shape),
                               "data": [float(v) for v in arr.ravel()]}
                        for name, arr in sorted(state.items())},
        }

    @classmethod
    def from_dict(cls, d: dict) -> "Network":
        """Inverse of to_dict.  Every field is checked, never coerced, and a
        ValueError names the first bad one."""
        if d.get("format") != "resae-network":
            raise ValueError("not a serialized network document")
        net = build_network(NetworkSpec.from_dict(checked_entry(d, "spec", dict, "spec")),
                            rng=Rng(0))
        state = {}
        for name, entry in checked_entry(d, "weights", dict, "weights").items():
            where = f"weights.{name}"
            entry = checked_json(entry, dict, where)
            shape = checked_json_list(checked_entry(entry, "shape", list, f"{where}.shape"),
                                      int, f"{where}.shape")
            state[name] = checked_entry(entry, "data", np.ndarray, f"{where}.data").reshape(shape)
        net.set_state(state)
        return net


def _pack(arrays: list) -> tuple[np.ndarray, np.ndarray]:
    """Two flat vectors for a list of (layer, name, partner): the layer's
    attribute name is copied into the first and rebound to its view there;
    attribute partner is rebound to the same slice of the second, zeroed
    vector."""
    size = sum(getattr(layer, name).size for layer, name, _ in arrays)
    first, second = np.empty(size), np.zeros(size)
    offset = 0
    for layer, name, partner in arrays:
        value = getattr(layer, name)
        end = offset + value.size
        view = first[offset:end].reshape(value.shape)
        view[...] = value
        setattr(layer, name, view)
        setattr(layer, partner, second[offset:end].reshape(value.shape))
        offset = end
    return first, second


def build_network(spec: NetworkSpec, rng: Rng | int) -> Network:
    """Realize a spec: symmetric encoder/decoder with nested identity shortcuts.

    The encoder walks nnode saving each pre-code output (and the raw input);
    dropout follows the code layer.  The decoder mirrors nnode[-2::-1], adds
    back the matching saved tensor after each block, ends with an nfea-wide
    layer summed with the input, and the head emits k (option 1) or k + nfea
    (option 2) outputs.  The post-op stages configured for the shortcut
    additions are emitted whether or not the addition itself is wired, so
    residual count 0 is the regular network: the identical stack with all
    additions skipped.
    """
    if isinstance(rng, int):
        rng = Rng(rng)
    acts = spec.act_list()
    n_layers = len(spec.nnode)
    keep = spec.residual_count()   # slots 0..keep-1 stay wired
    steps: list = []
    saves: list[ShortcutSave] = []   # indexed by slot

    def dense_block(n_in: int, n_out: int, act: str) -> None:
        layer = DenseLayer(n_in, n_out)
        layer.init_weights(rng, act)
        steps.append(layer)
        steps.append(Activation(act, spec.elu_alpha))
        if spec.use_batchnorm:
            steps.append(BatchNormLayer(n_out))

    def post_op(act: str, width: int) -> None:
        if spec.residual_post_op == "none":
            return
        steps.append(Activation(act, spec.elu_alpha))
        if spec.residual_post_op == "activation_batchnorm":
            steps.append(BatchNormLayer(width))

    def save(width: int) -> None:
        if len(saves) < keep:
            saves.append(ShortcutSave(len(saves), width))
            steps.append(saves[-1])

    def add(slot: int, width: int) -> None:
        if slot < keep:
            steps.append(ResidualAddNode(saves[slot], label=(
                f"shortcut slot {slot} (encode width {saves[slot].width} "
                f"<-> decode width {width})")))

    save(spec.nfea)

    # encoder
    width = spec.nfea
    for i, w in enumerate(spec.nnode):
        dense_block(width, w, acts[i])
        width = w
        if i < n_layers - 1:
            save(w)
            if spec.dropout_placement == "all" and spec.dropout_rate > 0.0:
                steps.append(DropoutLayer(spec.dropout_rate))
        else:
            # code layer: the one place the iterative recipe puts dropout
            if spec.dropout_rate > 0.0:
                steps.append(DropoutLayer(spec.dropout_rate))

    # decoder, innermost mirror first
    for j in range(n_layers - 2, -1, -1):
        dense_block(width, spec.nnode[j], acts[j])
        width = spec.nnode[j]
        add(j + 1, width)
        post_op(acts[j], width)
        if spec.dropout_placement == "all" and spec.dropout_rate > 0.0:
            steps.append(DropoutLayer(spec.dropout_rate))

    # final decode layer back to the input width, then the input-level shortcut
    dense_block(width, spec.nfea, acts[0])
    add(0, spec.nfea)
    post_op(acts[0], spec.nfea)

    # output head
    head_out = spec.k + (spec.nfea if spec.output_option == 2 else 0)
    head = DenseLayer(spec.nfea, head_out)
    head.init_weights(rng, spec.output_activation)
    steps.append(head)
    steps.append(Activation(spec.output_activation, spec.elu_alpha))
    return Network(spec, steps, rng)


def build_residual_network(spec: NetworkSpec, rng: Rng | int) -> Network:
    """The spec's network with every nested shortcut wired."""
    return build_network(replace(spec, residual="full"), rng)


def build_regular_network(spec: NetworkSpec, rng: Rng | int) -> Network:
    """Baseline: identical stack with every shortcut addition removed."""
    return build_network(replace(spec, residual="off"), rng)
