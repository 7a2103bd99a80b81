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

from dataclasses import asdict, dataclass, replace

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
    dropout_masks,
    inverse_sd,
)
from .matrix import (
    Matrix,
    Rng,
    check_field_types,
    checked_entry,
    checked_json,
    checked_json_list,
    checked_names,
    read_record,
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
    dropout_rate: float = 0.1
    residual: int | str = "full"
    residual_post_op: str = "activation_batchnorm"
    output_option: int = 1
    use_batchnorm: bool = True
    dropout_placement: str = "code"   # "code" (innermost layer only) or "all"

    # the fields that are not one JSON type: a list of integers, kept as a tuple,
    # one activation name or a list of names, and "full", "off" or an integer
    READERS = {"nnode": lambda value, name: tuple(checked_json_list(value, int, name)),
               "acts": checked_names,
               "residual": lambda value, name: value if value in ("full", "off") else
                   checked_json(value, int, f'{name}, if not "full" or "off",')}

    @property
    def n_shortcut_pairs(self) -> int:
        """Available identity pairs: one per hidden mirror plus the input pair."""
        return len(self.nnode)

    def act_list(self) -> tuple[str, ...]:
        return (self.acts,) * len(self.nnode) if isinstance(self.acts, str) else self.acts

    def residual_count(self) -> int:
        if self.residual == "off":
            return 0
        if self.residual == "full":
            return self.n_shortcut_pairs
        return self.residual

    def __post_init__(self):
        """Each field's type, then its range, checked when made; a ValueError names it.
        nnode, and acts if a list, are kept as tuples, so a spec hashes and equals its twin."""
        check_field_types(self)
        if len(self.nnode) == 0:
            raise ValueError("nnode must be non-empty")
        if any(w < 1 for w in self.nnode):
            raise ValueError(f"all widths must be >= 1, got {self.nnode}")
        if self.nfea < 1 or self.k < 1:
            raise ValueError(f"nfea and k must be >= 1, got nfea={self.nfea}, k={self.k}")
        acts = self.act_list()
        if len(acts) != len(self.nnode):
            raise ValueError(f"acts has {len(acts)} entries for {len(self.nnode)} layers")
        for a in acts:
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
        if self.dropout_placement not in ("code", "all"):
            raise ValueError(f"dropout_placement must be 'code' or 'all', "
                             f"got {self.dropout_placement!r}")

    def to_dict(self) -> dict:
        return {**asdict(self), "nnode": list(self.nnode), "acts": list(self.act_list())}


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

    A train pass draws every dropout mask with one request to rng, and an
    inference pass computes every batch-norm layer's inverse sd from
    net.running into one vector; each step is handed its part as its scale.
    """

    def __init__(self, spec: NetworkSpec):
        """Realize a spec: symmetric encoder/decoder with nested identity shortcuts.

        The encoder walks nnode saving each pre-code output (and the raw input);
        dropout follows the code layer.  The decoder mirrors nnode[-2::-1], adds
        back the matching saved tensor after each block, ends with an nfea-wide
        layer summed with the input, and the head emits k (option 1) or k + nfea
        (option 2) outputs.  The post-op stages configured for the shortcut
        additions are emitted whether or not the addition itself is wired, so
        residual count 0 is the regular network: the identical stack with all
        additions skipped.  Each step's place (its name, its columns of the
        pass's one dropout draw, its entries of net.running) is recorded as it
        is made.

        Every weight is zero and the network holds a fresh Rng(0): it draws
        nothing, so a loader that sets its state, or a caller that only counts
        its parameters, pays no initialization.
        """
        acts = spec.act_list()
        n_layers = len(spec.nnode)
        keep = spec.residual_count()   # slots 0..keep-1 stay wired
        steps: list = []
        saves: list[ShortcutSave] = []   # indexed by slot
        stateful: list = []   # (name, layer) of each dense and batch-norm layer, in flat order
        norms: list = []   # (name, layer, step index, offset in the inverse-sd vector)
        var_index: list[int] = []   # each batch norm's running_var entries in net.running
        self.shortcuts: list[ResidualAddNode] = []   # the add steps, outermost (slot 0) first
        self._dropout_at, self._dropout_bounds = [], []

        def layer_step(kind: str, layer) -> str:
            stateful.append((f"L{len(stateful):03d}.{kind}", layer))
            steps.append(layer)
            return stateful[-1][0]

        def batchnorm(width: int) -> None:   # net.running holds its mean, then its var
            at, i, bn = len(var_index), len(steps), BatchNormLayer(width)
            var_index.extend(range(2 * at + width, 2 * at + 2 * width))
            norms.append((layer_step("bn", bn), bn, i, at))

        def dense_block(n_in: int, n_out: int, act: str) -> None:
            layer_step("dense", DenseLayer(n_in, n_out))
            steps.append(Activation(act))
            if spec.use_batchnorm:
                batchnorm(n_out)

        def post_op(act: str, width: int) -> None:
            if spec.residual_post_op == "none":
                return
            steps.append(Activation(act))
            if spec.residual_post_op == "activation_batchnorm":
                batchnorm(width)

        def dropout(width: int) -> None:   # its columns of the pass's one draw follow the last
            if spec.dropout_rate > 0.0:
                lo = self._dropout_bounds[-1][1] if self._dropout_bounds else 0
                self._dropout_at.append(len(steps))
                self._dropout_bounds.append((lo, lo + width))
                steps.append(DropoutLayer(spec.dropout_rate))

        def save(width: int) -> None:
            if len(saves) < keep:
                saves.append(ShortcutSave(len(saves), width))
                steps.append(saves[-1])

        def add(slot: int, width: int) -> None:   # the decoder adds innermost slots first
            if slot < keep:
                steps.append(ResidualAddNode(saves[slot], label=(
                    f"shortcut slot {slot} (encode width {saves[slot].width} "
                    f"<-> decode width {width})")))
                self.shortcuts.insert(0, steps[-1])

        save(spec.nfea)

        # encoder
        width = spec.nfea
        for i, w in enumerate(spec.nnode):
            dense_block(width, w, acts[i])
            width = w
            if i < n_layers - 1:
                save(w)
            if i == n_layers - 1 or spec.dropout_placement == "all":
                dropout(w)   # the code layer is the one place the iterative recipe puts it

        # decoder, innermost mirror first
        for j in range(n_layers - 2, -1, -1):
            dense_block(width, spec.nnode[j], acts[j])
            width = spec.nnode[j]
            add(j + 1, width)
            post_op(acts[j], width)
            if spec.dropout_placement == "all":
                dropout(width)

        # final decode layer back to the input width, then the input-level shortcut
        dense_block(width, spec.nfea, acts[0])
        add(0, spec.nfea)
        post_op(acts[0], spec.nfea)

        # output head
        head_out = spec.k + (spec.nfea if spec.output_option == 2 else 0)
        layer_step("dense", DenseLayer(spec.nfea, head_out))
        steps.append(Activation("linear"))   # a linear head; build_network scales its weights

        self.spec, self.steps, self.rng = spec, steps, Rng(0)
        self.flat = Param("flat", *_pack([(layer, attr, "d" + attr) for _, layer in stateful
                                          for attr in layer.PARAMS]))
        stats = [(name, bn, f"running_{stat}") for name, bn, _, _ in norms
                 for stat in ("mean", "var")]
        self.running, self._batch_stats = _pack([(bn, attr, attr.replace("running", "batch"))
                                                 for _, bn, attr in stats])
        self._params = [Param(f"{name}.{attr}", getattr(layer, attr), getattr(layer, "d" + attr))
                        for name, layer in stateful for attr in layer.PARAMS]
        self._views = {p.name: p.value for p in self._params}
        self._views.update({f"{name}.{attr}": getattr(bn, attr) for name, bn, attr in stats})
        self._var_index, self._inv = np.array(var_index, dtype=np.intp), np.empty(len(var_index))
        self._inverse_sds = [None] * len(steps)
        for _, bn, i, at in norms:
            self._inverse_sds[i] = self._inv[at:at + bn.width].reshape(1, -1)

    # -- forward / backward -------------------------------------------------

    def forward(self, x: Matrix, mode: str = "infer", trace: dict | None = None) -> Predictions:
        if mode not in ("train", "infer"):
            raise ValueError(f"mode must be 'train' or 'infer', got {mode!r}")
        if x.ndim != 2 or x.shape[1] != self.spec.nfea:
            raise ValueError(f"forward expects (n, {self.spec.nfea}) input, got {x.shape}")
        train = mode == "train"
        if train:
            scales = [None] * len(self.steps)
            if self._dropout_at:
                masks = dropout_masks(self.rng, self.spec.dropout_rate, x.shape[0],
                                      self._dropout_bounds)
                for i, mask in zip(self._dropout_at, masks):
                    scales[i] = mask
        else:
            scales = self._inverse_sds
            inverse_sd(np.take(self.running, self._var_index, out=self._inv), out=self._inv)
        cur = x
        for i, step in enumerate(self.steps):
            cur = step.forward(cur, train, scales[i])
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
            for i, step in enumerate(self.steps):
                if isinstance(step, ResidualAddNode):
                    trace[("add", step.slot)] = trace[i]
                    trace[("save", step.slot)] = step.save.grad
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
        """A copy keeping only this network's n outermost shortcuts, with its
        parameters and running stats.

        Slot 0 (the input-level pair) is the outermost and is counted first.
        n must be in 0..len(self.shortcuts): truncation never adds a shortcut.
        """
        if not 0 <= checked_json(n_outermost, int, "n_outermost") <= len(self.shortcuts):
            raise ValueError(f"n_outermost must be in 0..{len(self.shortcuts)}, got {n_outermost}")
        new = Network(replace(self.spec, residual=n_outermost))
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
        ValueError names the first bad one; the spec must hold every field,
        layers and parameter_count must be the spec's own, each weight's shape
        and number count its parameter's, and no running variance negative."""
        if d.get("format") != "resae-network":
            raise ValueError("not a serialized network document")
        net = cls(read_record(NetworkSpec, checked_entry(d, "spec", dict, "spec"), "spec",
                              saved=True))
        if checked_entry(d, "layers", list, "layers") != net.layer_summary():
            raise ValueError("layers must be the layer summary of the spec's network")
        count = checked_entry(d, "parameter_count", int, "parameter_count")
        if count != net.count_parameters():
            raise ValueError(f"parameter_count must be the spec's network's "
                             f"{net.count_parameters()}, got {count}")
        state = {}
        for name, entry in checked_entry(d, "weights", dict, "weights").items():
            where = f"weights.{name}"
            entry = checked_json(entry, dict, where)
            shape = checked_json_list(checked_entry(entry, "shape", list, f"{where}.shape"),
                                      int, f"{where}.shape")
            data = checked_entry(entry, "data", np.ndarray, f"{where}.data")
            want = net._views.get(name)     # an unknown name is set_state's to reject
            if want is not None:
                if tuple(shape) != want.shape:
                    raise ValueError(f"{where}.shape must be {list(want.shape)}, got {shape}")
                if data.size != want.size:
                    raise ValueError(f"{where}.data must hold {want.size} numbers, "
                                     f"got {data.size}")
                if name.endswith(".running_var") and (data < 0.0).any():
                    i = int(np.argmax(data < 0.0))
                    raise ValueError(f"{where}.data[{i}] must be >= 0, got {float(data[i])!r}")
                data = data.reshape(want.shape)
            state[name] = data
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
    """Network(spec) with its initial weights drawn from rng, which the
    network keeps for its dropout masks."""
    net = Network(spec)
    net.rng = Rng(rng) if isinstance(rng, int) else rng
    for i, step in enumerate(net.steps):
        if isinstance(step, DenseLayer):   # scaled for the activation that follows it
            step.init_weights(net.rng, net.steps[i + 1].kind)
    return net

