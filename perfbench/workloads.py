"""The four benchmark workloads and the layer calls a traced run times.

Every workload is a closed loop with one caller: the next op starts when
the previous one has returned.  Inputs come only from the run's seed.
Each op runs cheap checks (shapes, finite values) on its own output; each
workload also has one oracle that runs once per run, after timing.
"""

from __future__ import annotations

import dataclasses
import functools
from typing import Callable, Dict, Iterator, List, Optional, Tuple

import numpy as np

from repro.backends import default_backend_name
from repro.core import QuBatchVQC, QuGeoVQC
from repro.core import training as core_training
from repro.core.config import QuGeoDataConfig, QuGeoVQCConfig
from repro.core.data_scaling import ForwardModelingScaler
from repro.data import build_flatvel_dataset, train_test_split
from repro.data.dataset import FWISample
from repro.data.openfwi import OpenFWIConfig, SyntheticOpenFWI
from repro.nn.optim import Adam
from repro.seismic.acoustic2d import (BatchedAcousticSimulator2D,
                                      SimulationConfig, stable_time_step)
from repro.seismic.boundary import PMLBoundary
from repro.seismic.forward_modeling import ForwardModel
from repro.seismic.kernels import default_kernel_name, resolve_kernel
from repro.seismic.propagators import default_propagator_name
from repro.seismic.survey import SurveyGeometry
from repro.seismic.velocity_models import (VelocityModelConfig,
                                           random_velocity_models)
from repro.xm.policy import (default_policy_name, get_dtype_policy,
                             set_default_policy)

#: ``(module:attribute, span name)`` of every layer call a traced run times.
TRACE_POINTS: Tuple[Tuple[str, str], ...] = (
    ("repro.seismic.forward_modeling:ForwardModel.model_shots",
     "seismic.propagate"),
    ("repro.seismic.forward_modeling:ForwardModel.model_shots_batch",
     "seismic.propagate"),
    ("repro.data.openfwi:SyntheticOpenFWI.build_chunk", "data.build_chunk"),
    ("repro.core.data_scaling:ForwardModelingScaler.scale_seismic",
     "core.data_scaling.scale"),
    ("repro.core.training:QuantumBatchedAdjointStep.step",
     "core.training.step"),
    ("repro.core.training:QuantumPerSampleStep.step", "core.training.step"),
    ("repro.core.training:QuBatchStep.step", "core.training.step"),
    ("repro.core.training:ArrayDataSource.gather", "core.training.gather"),
    ("repro.core.training:evaluate_data_source", "core.training.eval"),
    ("repro.core.training:ssim", "metrics.ssim"),
    ("repro.core.vqc_model:QuGeoVQC.predict_batch", "quantum.predict_batch"),
    ("repro.core.qubatch:QuBatchVQC.predict_batch", "quantum.predict_batch"),
    ("repro.nn.optim:Adam.step", "nn.optim.step"),
    ("repro.nn.optim:Optimizer.zero_grad", "nn.optim.zero_grad"),
)

# The benchmark's ``small`` generation tier.
SMALL_SHAPE = (32, 32)
SMALL_STEPS = 300
SMALL_SOURCES = 4
CHUNK = 4
DOMAIN_WIDTH = 700.0

# Q-D-FW physics-guided scaling as the paper benchmarks configure it.
SCALED = QuGeoDataConfig(scaled_seismic_shape=(1, 32, 8),
                         scaled_velocity_shape=(8, 8))
SCALE_GRID = (24, 24)
SCALE_STEPS = 256

# Table 1: 8 qubits, 12 blocks, layer decoder, 0/1/2 QuBatch qubits.
BATCH_QUBITS = (0, 1, 2)
N_TRAIN = 16
N_TEST = 16
BATCH = 8
EPOCHS = 3
LEARNING_RATE = 0.1
MODEL_SEED = 1

# datagen-pml-f32: FlatVelA geometry with short records, so that one run
# holds enough ops for a tail percentile.
PML_SHAPE = (70, 70)
PML_SOURCES = 5
PML_RECEIVERS = 70
PML_STEPS = 32
PML_DX = 10.0
PML_WIDTH = 12
PML_POOL = 64

GATHER_TOL = 1e-9      # batched vs scalar float64 propagator
FLOAT32_TOL = 1e-4     # float32 vs float64 gathers (peak-normalised)
GRADIENT_TOL = 1e-10   # strategy step vs per-sample adjoint
FD_STEP = 1e-5
FD_TOL = 1e-7          # central difference vs adjoint directional derivative
PREDICT_TOL = 1e-10    # predict_batch vs per-sample predict
REPEAT_TOL = 1e-9      # the same computation repeated within one run


@dataclasses.dataclass
class Op:
    """One timed unit of work: ``run()`` returns ``None`` or why it failed."""

    samples: int
    run: Callable[[], Optional[str]]


def _nonfinite(*arrays) -> Optional[str]:
    for array in arrays:
        if not np.all(np.isfinite(np.asarray(array))):
            return "non-finite output"
    return None


def _max_gap(a, b) -> float:
    return float(np.max(np.abs(np.asarray(a) - np.asarray(b))))


def seismic_work(forward_model: ForwardModel, velocity_shape: Tuple[int, int],
                 n_models: int) -> Tuple[int, int, int]:
    """Computed ``(wavefield steps, flops, bytes)`` of one forward call.

    Per grid point and step the count covers the two-axis stencil and the
    leap-frog update (``4 * order + 7`` flops) and the four arrays the update
    streams (``p_prev``, ``p_curr``, ``c^2 dt^2``, ``p_next``) at the dtype
    policy's real itemsize.  Boundary, injection and recording are left out.
    The grid includes the absorbing pad when it lies outside the model.
    """
    config = forward_model.config
    boundary = config.boundary
    pad = int(boundary.width) if getattr(boundary, "pad_grid", False) else 0
    top = 0 if getattr(boundary, "free_surface", True) else pad
    nz, nx = velocity_shape
    points = (nz + top + pad) * (nx + 2 * pad)
    steps = n_models * forward_model.survey.n_sources * config.n_steps
    itemsize = np.dtype(get_dtype_policy().real).itemsize
    flops = steps * points * (4 * config.spatial_order + 7)
    return steps, flops, steps * points * 4 * itemsize


def _count_seismic(tracer, args, kwargs, result) -> None:
    if tracer.inside("seismic.propagate"):
        return  # model_shots_batch falling back to model_shots
    forward_model, velocity = args[0], np.asarray(args[1])
    n_models = velocity.shape[0] if velocity.ndim == 3 else 1
    steps, flops, nbytes = seismic_work(forward_model, velocity.shape[-2:],
                                        n_models)
    tracer.count("seismic.wavefield_steps", steps)
    tracer.count("seismic.flops_computed", flops)
    tracer.count("seismic.bytes_computed", nbytes)


def _count_circuits(tracer, model, runs: int) -> None:
    gates = runs * len(model.circuit.ops)
    tracer.count("quantum.circuit_runs", runs)
    tracer.count("quantum.gate_applications_computed", gates)
    tracer.count("quantum.amplitude_updates_computed",
                 gates * 2 ** model.circuit.n_qubits)


def _circuit_runs(model, n_samples: int) -> int:
    if isinstance(model, QuBatchVQC):
        return -(-n_samples // model.batch_capacity)
    return n_samples


def _count_predict(tracer, args, kwargs, result) -> None:
    if tracer.inside("quantum.predict_batch"):
        return  # QuBatch splitting a batch past its capacity
    model = args[0]
    _count_circuits(tracer, model, _circuit_runs(model, len(args[1])))


def _count_step(tracer, args, kwargs, result) -> None:
    model = args[1]
    _count_circuits(tracer, model, _circuit_runs(model, len(args[2])))


#: Computed work counted when a traced span closes (forward passes only:
#: the adjoint backward sweep's gate applications are not counted).
COUNT_HOOKS = {
    "seismic.propagate": _count_seismic,
    "quantum.predict_batch": _count_predict,
    "core.training.step": _count_step,
}


def _kernel_context() -> Dict[str, object]:
    kernel, fallback = resolve_kernel(None)
    return {"propagator": default_propagator_name(),
            "seismic_kernel_requested": default_kernel_name(),
            "seismic_kernel": kernel.name,
            "seismic_kernel_fallback": fallback}


class Workload:
    """Base class: set-up, an op stream, an oracle and a quality figure."""

    name = ""

    def setup(self, seed: int) -> None:
        raise NotImplementedError

    def ops(self) -> Iterator[Op]:
        raise NotImplementedError

    def ready(self) -> bool:
        """Whether the run may stop at its deadline (quality is known)."""
        return True

    def verify(self) -> List[str]:
        """Run the oracle after timing; returns the failures found."""
        raise NotImplementedError

    def quality(self) -> Optional[float]:
        """Mean test SSIM over the trio, for the workloads that train."""
        return None

    def context(self) -> Dict[str, object]:
        return {"dtype_policy": default_policy_name(), **_kernel_context()}


# --------------------------------------------------------------------------- #
# datagen
# --------------------------------------------------------------------------- #
class Datagen(Workload):
    """Cold serial generation of ``small``-tier chunks, then Q-D-FW scaling.

    Every op generates a chunk index no earlier op used, so no input
    repeats.
    """

    name = "datagen"

    def setup(self, seed: int) -> None:
        self.config = OpenFWIConfig(
            n_samples=CHUNK, velocity_shape=SMALL_SHAPE,
            n_sources=SMALL_SOURCES, n_receivers=SMALL_SHAPE[1],
            n_time_steps=SMALL_STEPS, dx=DOMAIN_WIDTH / SMALL_SHAPE[1],
            chunk_size=CHUNK)
        self.generator = SyntheticOpenFWI(self.config, rng=seed)
        self.scaler = ForwardModelingScaler(SCALED, simulation_shape=SCALE_GRID,
                                            simulation_steps=SCALE_STEPS)
        self.checked: Optional[Tuple[np.ndarray, np.ndarray]] = None
        self._chunk(0)  # warm-up: first-call costs belong to set-up

    def _chunk(self, index: int) -> Tuple[Optional[str], np.ndarray,
                                          np.ndarray]:
        """Generate and scale chunk ``index``: ``(failure, maps, gathers)``."""
        velocities, seismic = self.generator.build_chunk(index, CHUNK)
        scaled = [self.scaler.scale_sample(
            FWISample(seismic=gather, velocity=velocity,
                      metadata={"dx": self.config.dx}))
            for velocity, gather in zip(velocities, seismic)]
        expected = (CHUNK, SMALL_SOURCES, SMALL_STEPS, SMALL_SHAPE[1])
        if seismic.shape != expected:
            return f"gather shape {seismic.shape} != {expected}", \
                velocities, seismic
        for sample in scaled:
            if sample.seismic.shape != SCALED.scaled_seismic_shape:
                return "scaled shape mismatch", velocities, seismic
        return (_nonfinite(seismic, *[s.seismic for s in scaled],
                           *[s.velocity for s in scaled]),
                velocities, seismic)

    def _op(self, index: int) -> Optional[str]:
        failure, velocities, seismic = self._chunk(index)
        if self.checked is None:
            self.checked = (velocities[0], seismic[0])
        return failure

    def ops(self) -> Iterator[Op]:
        index = 1  # chunk 0 was the warm-up
        while True:
            yield Op(samples=CHUNK, run=functools.partial(self._op, index))
            index += 1

    def verify(self) -> List[str]:
        velocity, gather = self.checked
        scalar = dataclasses.replace(self.generator.forward_model,
                                     propagator="scalar")
        reference = scalar.model_shots(velocity)
        gap = _max_gap(gather, reference)
        if gap > GATHER_TOL:
            return [f"batched gather differs from the scalar simulator by "
                    f"{gap:.3e} > {GATHER_TOL:.0e}"]
        return []


# --------------------------------------------------------------------------- #
# datagen-pml-f32
# --------------------------------------------------------------------------- #
class DatagenPmlF32(Workload):
    """FlatVelA maps through ``ForwardModel`` under the float32 policy.

    The padded PML grid (82x94 cells) is larger than the cache; the
    float32 policy takes its own Laplacian path.
    """

    name = "datagen-pml-f32"

    def setup(self, seed: int) -> None:
        set_default_policy("float32")
        model_config = VelocityModelConfig(shape=PML_SHAPE)
        dt = stable_time_step(model_config.max_velocity, dx=PML_DX,
                              dz=PML_DX, spatial_order=4)
        simulation = SimulationConfig(
            dx=PML_DX, dz=PML_DX, dt=dt, n_steps=PML_STEPS, spatial_order=4,
            boundary=PMLBoundary(width=PML_WIDTH, pad_grid=True))
        self.forward_model = ForwardModel(
            survey=SurveyGeometry(n_sources=PML_SOURCES,
                                  n_receivers=PML_RECEIVERS,
                                  nx=PML_SHAPE[1]),
            config=simulation, peak_frequency=15.0)
        self.velocities = random_velocity_models(
            PML_POOL + 1, model_config, family="flat",
            rng=np.random.default_rng(seed))
        self.checked: Optional[Tuple[np.ndarray, np.ndarray]] = None
        self.forward_model.model_shots_batch(self.velocities[-1:])  # warm-up

    def _op(self, velocity: np.ndarray) -> Optional[str]:
        gathers = self.forward_model.model_shots_batch(velocity[None])
        expected = (1, PML_SOURCES, PML_STEPS, PML_RECEIVERS)
        if gathers.shape != expected:
            return f"gather shape {gathers.shape} != {expected}"
        if self.checked is None:
            self.checked = (velocity, gathers[0])
        return _nonfinite(gathers)

    def ops(self) -> Iterator[Op]:
        index = 0
        while True:
            velocity = self.velocities[index % PML_POOL]
            yield Op(samples=1, run=functools.partial(self._op, velocity))
            index += 1

    def verify(self) -> List[str]:
        velocity, gather = self.checked
        float64 = dataclasses.replace(
            self.forward_model,
            propagator=functools.partial(BatchedAcousticSimulator2D,
                                         policy="float64"))
        reference = float64.model_shots(velocity)
        gap = _max_gap(gather, reference)
        if gap > FLOAT32_TOL:
            return [f"float32 gather differs from float64 by {gap:.3e} > "
                    f"{FLOAT32_TOL:.0e}"]
        return []


# --------------------------------------------------------------------------- #
# train / predict
# --------------------------------------------------------------------------- #
def _build_model(n_batch_qubits: int):
    config = QuGeoVQCConfig(n_groups=1, qubits_per_group=8, n_blocks=12,
                            decoder="layer", output_shape=(8, 8),
                            n_batch_qubits=n_batch_qubits)
    if n_batch_qubits:
        return QuBatchVQC(config, rng=MODEL_SEED)
    return QuGeoVQC(config, rng=MODEL_SEED)


def _sources(dataset) -> core_training.ArrayDataSource:
    seismic = np.stack([sample.seismic.reshape(-1) for sample in dataset])
    velocity = np.stack([sample.velocity for sample in dataset])
    return core_training.ArrayDataSource(seismic, velocity)


class _Member:
    """One model of the trio with its optimiser."""

    def __init__(self, n_batch_qubits: int) -> None:
        self.model = _build_model(n_batch_qubits)
        self.strategy = core_training.select_step_strategy(self.model)
        self.batch = (self.model.batch_capacity
                      if isinstance(self.model, QuBatchVQC) else BATCH)
        self.initial = self.model.state_dict()
        self.reset()

    def reset(self) -> None:
        self.model.load_state_dict(self.initial)
        self.optimizer = Adam(self.model.parameter_tensors(), lr=LEARNING_RATE)


class _Trio(Workload):
    """Shared set-up of ``train`` and ``predict``: Q-D-FW data and models."""

    def setup(self, seed: int) -> None:
        dataset = build_flatvel_dataset(
            n_samples=N_TRAIN + N_TEST, velocity_shape=SMALL_SHAPE,
            n_time_steps=SMALL_STEPS, n_sources=SMALL_SOURCES, rng=seed)
        train, test = train_test_split(dataset, train_size=N_TRAIN, rng=seed)
        scaler = ForwardModelingScaler(SCALED, simulation_shape=SCALE_GRID,
                                       simulation_steps=SCALE_STEPS)
        self.train_source = _sources(scaler.scale_dataset(train))
        self.test_source = _sources(scaler.scale_dataset(test))
        self.members = [_Member(q) for q in BATCH_QUBITS]
        self.seed = seed

    def _step(self, indices: np.ndarray,
              first_steps: Dict[_Member, dict]) -> Optional[str]:
        """One mini-batch through every model, in steps of its batch size.

        QuBatch models take the mini-batch in circuit-capacity steps, as
        ``QuBatchStep`` trains them.  Each model's first step of the run is
        kept for the oracle.
        """
        for member in self.members:
            for start in range(0, len(indices), member.batch):
                before = (member.model.state_dict()
                          if member not in first_steps else None)
                seismic, velocity = self.train_source.gather(
                    indices[start:start + member.batch])
                member.optimizer.zero_grad()
                loss = member.strategy.step(member.model, seismic, velocity)
                if before is not None:
                    first_steps[member] = {
                        "params": before, "seismic": seismic,
                        "velocity": velocity,
                        "grad": np.array(member.model.theta.grad, copy=True)}
                failure = _nonfinite(loss, member.model.theta.grad)
                if failure:
                    return failure
                member.optimizer.step()
        return None

    def train_round(self, first_steps: Dict[_Member, dict]) -> Iterator[Op]:
        """``EPOCHS`` epochs of the trio from its initial weights."""
        for member in self.members:
            member.reset()
        rng = np.random.default_rng(self.seed)
        for _ in range(EPOCHS):
            order = rng.permutation(len(self.train_source))
            for start in range(0, len(order), BATCH):
                indices = order[start:start + BATCH]
                yield Op(samples=len(indices) * len(self.members),
                         run=functools.partial(self._step, indices,
                                               first_steps))

    def evaluate(self, member: _Member, source=None) -> Dict[str, float]:
        return core_training.evaluate_data_source(
            member.model, source or self.test_source, batch_size=BATCH)

    def context(self) -> Dict[str, object]:
        return {**super().context(),
                "backend": default_backend_name(),
                "models": [{"name": m.model.name,
                            "backend": m.model.backend.name,
                            "step_strategy": m.strategy.name,
                            "batch": m.batch,
                            "parameters": int(m.model.circuit.n_params)}
                           for m in self.members]}


def check_first_steps(first_steps: Dict[_Member, dict]) -> List[str]:
    """Oracle for each model's first step of the run.

    QuGeoVQC: the strategy's gradient against one per-sample
    ``accumulate_gradients`` call per sample.  QuBatchVQC couples the batch
    in one register, so it has no per-sample path; its gradient is checked
    along a random direction against a central finite difference.
    """
    failures = []
    for member, record in first_steps.items():
        scratch = type(member.model)(member.model.config, rng=MODEL_SEED)
        scratch.load_state_dict(record["params"])
        seismic, velocity, grad = (record["seismic"], record["velocity"],
                                   record["grad"])
        if isinstance(scratch, QuBatchVQC):
            direction = np.random.default_rng(0).normal(size=grad.shape)
            direction /= np.linalg.norm(direction)
            losses = []
            for sign in (1.0, -1.0):
                state = dict(record["params"])
                state["theta"] = record["params"]["theta"] + sign * FD_STEP \
                    * direction
                scratch.load_state_dict(state)
                losses.append(scratch.loss_and_gradients(seismic, velocity)[0])
            finite_difference = (losses[0] - losses[1]) / (2 * FD_STEP)
            gap = abs(finite_difference - float(grad @ direction))
            tolerance = FD_TOL * max(1.0, abs(finite_difference))
        else:
            weight = 1.0 / len(seismic)
            for sample, target in zip(seismic, velocity):
                scratch.accumulate_gradients(sample, target, weight=weight)
            gap = _max_gap(scratch.theta.grad, grad)
            tolerance = GRADIENT_TOL
        if gap > tolerance:
            failures.append(f"{scratch.name}: first-step gradient off by "
                            f"{gap:.3e} > {tolerance:.0e}")
    return failures


class Train(_Trio):
    """Rounds of ``EPOCHS`` epochs from the same start, then a test eval.

    Every round repeats the first exactly, so its test SSIM must too; the
    round's evaluation counts toward throughput but is not an op.
    """

    name = "train"

    def setup(self, seed: int) -> None:
        super().setup(seed)
        self.first_steps: Dict[_Member, dict] = {}
        self.round_ssims: List[List[float]] = []
        self.drift: List[str] = []

    def ops(self) -> Iterator[Op]:
        while True:
            yield from self.train_round(self.first_steps)
            ssims = [self.evaluate(m)["test_ssim"] for m in self.members]
            if self.round_ssims and _max_gap(ssims, self.round_ssims[0]) \
                    > REPEAT_TOL:
                self.drift.append(f"round {len(self.round_ssims) + 1} test "
                                  f"SSIM {ssims} != {self.round_ssims[0]}")
            self.round_ssims.append(ssims)

    def ready(self) -> bool:
        return bool(self.round_ssims)

    def verify(self) -> List[str]:
        return self.drift + check_first_steps(self.first_steps)

    def quality(self) -> float:
        return float(np.mean(self.round_ssims[0]))


class Predict(_Trio):
    """Repeated evaluation passes over the held-out split, fixed weights.

    The weights come from one seeded training round in set-up.  One op is
    one evaluation batch scored by each model of the trio through
    ``evaluate_data_source``; a sample is one model's prediction.  After the
    first pass every input repeats, so a pass must reproduce the first one.
    """

    name = "predict"

    def setup(self, seed: int) -> None:
        super().setup(seed)
        for op in self.train_round({}):
            op.run()
        self.batches = [
            core_training.ArrayDataSource(
                *self.test_source.gather(np.arange(start, min(
                    start + BATCH, len(self.test_source)))))
            for start in range(0, len(self.test_source), BATCH)]
        self.first_pass: Dict[Tuple[int, int], Tuple[float, float]] = {}
        self.passes = 0

    def _score(self, b_index: int) -> Optional[str]:
        for m_index, member in enumerate(self.members):
            result = self.evaluate(member, self.batches[b_index])
            scores = (result["test_ssim"], result["test_mse"])
            first = self.first_pass.setdefault((m_index, b_index), scores)
            if _max_gap(scores, first) > REPEAT_TOL:
                return (f"pass {self.passes + 1}, {member.model.name}, batch "
                        f"{b_index}: {scores} != {first}")
            failure = _nonfinite(scores)
            if failure:
                return failure
        return None

    def ops(self) -> Iterator[Op]:
        while True:
            for b_index, batch in enumerate(self.batches):
                yield Op(samples=len(batch) * len(self.members),
                         run=functools.partial(self._score, b_index))
            self.passes += 1

    def ready(self) -> bool:
        return self.passes > 0

    def verify(self) -> List[str]:
        failures = []
        seismic, _ = self.batches[0].gather(np.arange(len(self.batches[0])))
        for member in self.members:
            batched = member.model.predict_batch(seismic)
            single = np.stack([member.model.predict(x) for x in seismic])
            gap = _max_gap(batched, single)
            if gap > PREDICT_TOL:
                failures.append(f"{member.model.name}: predict_batch differs "
                                f"from predict by {gap:.3e}")
        return failures

    def quality(self) -> float:
        per_model = []
        for m_index in range(len(self.members)):
            weights = [len(b) for b in self.batches]
            scores = [self.first_pass[(m_index, b)][0]
                      for b in range(len(self.batches))]
            per_model.append(np.average(scores, weights=weights))
        return float(np.mean(per_model))

    def context(self) -> Dict[str, object]:
        return {**super().context(), "passes": self.passes,
                "repeated_input_share": ((self.passes - 1) / self.passes
                                         if self.passes else 0.0)}


WORKLOADS = {cls.name: cls for cls in (Datagen, DatagenPmlF32, Train, Predict)}
