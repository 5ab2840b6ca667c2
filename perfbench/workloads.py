"""The benchmark's four workloads, their correctness gates and the per-layer
numbers read from a traced run.

Each workload makes its inputs from the seed and runs closed-loop, one
operation after another, until its time is up. It sets up ``setup_reps``
times (the median is ``setup_s``): once before the first operation and the
rest spread over the run. ``op_ms`` is the median time of one operation
of the workload over the run (see README.md).
Gates check every operation's outputs; a canary with fixed inputs compares
against the values in ``reference.json``, recorded at the seed commit.
"""

from __future__ import annotations

import contextlib
import math
import random
import statistics
import time
import zlib
from dataclasses import dataclass, field
from pathlib import Path

from semaffine import verify
from semaffine.checkpoint import load_checkpoint, restore_parameters, save_checkpoint
from semaffine.config import snapshot
from semaffine.errors import SemaffineError
from semaffine.harness import TrainConfig
from semaffine.hierarchy import build_hierarchy
from semaffine.model import ModelConfig, build_model
from semaffine.scenes import SceneSpec, generate_scene, write_manifest, write_scene
from semaffine.train import evaluate_scenes, load_corpus, prepare_scene, train_model

import spans

# 4x the default points per object; the top level stays at ~30 tokens
# because the scene extent is unchanged.
DENSE = SceneSpec(points_per_object=1360)
GRADCHECK_MODULES = ("tensor", "blocks", "hierarchy", "affine", "losses", "model")
LOSS_RTOL = 1e-12


@dataclass(frozen=True)
class Sizes:
    setup_reps: int = 25
    train_scenes: int = 4
    train_epochs: int = 1
    eval_scenes: int = 8
    eval_min_samples: int = 100  # so p90 has at least 10 samples beyond it
    ingest_scenes: int = 4


FULL = Sizes()
SMOKE = Sizes(setup_reps=1, eval_scenes=2, eval_min_samples=3, ingest_scenes=2)


@dataclass
class Outcome:
    setup_s: float = 0.0
    op_ms: float = 0.0  # median; also the time the tracing overhead is measured on
    attempted: int = 0
    failed: int = 0
    gates: dict = field(default_factory=dict)  # gate name -> first failures
    info: dict = field(default_factory=dict)

    def check(self, gate: str, failures: list[str], ops: int = 1) -> None:
        """Record one gate result covering ``ops`` operations."""
        self.gates.setdefault(gate, [])
        if failures:
            self.failed += ops
            if len(self.gates[gate]) < 3:
                self.gates[gate].extend(failures[:3 - len(self.gates[gate])])


# -- gates ---------------------------------------------------------------------


def losses_match(got: list[float], ref: list[float]) -> list[str]:
    if len(got) != len(ref):
        return [f"{len(got)} losses, reference has {len(ref)}"]
    return [f"loss {i}: {g!r} vs reference {r!r}" for i, (g, r) in enumerate(zip(got, ref))
            if not abs(g - r) <= LOSS_RTOL * abs(r)]


def finite(values: list[float]) -> list[str]:
    return [f"non-finite loss {v!r}" for v in values if not math.isfinite(v)]


def equal(got, ref, what: str) -> list[str]:
    return [] if got == ref else [f"{what}: {got!r} vs reference {ref!r}"]


def same_bytes(a: Path, b: Path) -> list[str]:
    return [] if a.read_bytes() == b.read_bytes() else [f"{b.name} differs from {a.name}"]


def suite_failures(lines: list[str], passed: bool) -> tuple[int, list[str]]:
    """(checks run, failure lines) from ``verify.run_suite`` output."""
    results = [line for line in lines if line.startswith(("PASS", "FAIL"))]
    failures = [line for line in results if line.startswith("FAIL")]
    if not passed and not failures:
        failures = lines[-1:] or ["run_suite reported failure"]
    return max(len(results), 1), failures


# -- helpers -----------------------------------------------------------------------


def scene_seed(seed: int, i: int) -> int:
    return seed * 1000 + i


def epoch_losses(log_lines: list[str]) -> list[float]:
    return [float(line.split("\t")[1]) for line in log_lines]


class Setup:
    """A workload's set-up, timed ``reps`` times over a run of ``seconds``.

    The first result is the one the workload uses. The machine's speed
    drifts for seconds at a time, so repeats spread over the run see more of
    that drift than back-to-back ones and give a steadier median."""

    def __init__(self, fn, reps: int, seconds: float):
        self.fn, self.reps, self.seconds = fn, reps, seconds
        self.times: list[float] = []
        self.start = time.perf_counter()
        self.result = self._once()

    def _once(self):
        t0 = time.perf_counter()
        result = self.fn()
        self.times.append(time.perf_counter() - t0)
        return result

    def between_ops(self) -> None:
        """Set up again once the run has reached the next repeat's share."""
        if (len(self.times) < self.reps
                and time.perf_counter() - self.start >= len(self.times) * self.seconds / self.reps):
            self._once()

    def median(self) -> float:
        while len(self.times) < self.reps:
            self._once()
        return statistics.median(self.times)


def another(deadline: float, durations: list[float], at_least: int = 1) -> bool:
    """Whether to start another operation: until ``at_least`` are done, then
    while one more, as long as the last, still ends before ``deadline``."""
    return len(durations) < at_least or time.perf_counter() + durations[-1] <= deadline


def p90(values: list[float]) -> float:
    """Nearest-rank 90th percentile."""
    ordered = sorted(values)
    return ordered[math.ceil(0.9 * len(ordered)) - 1]


def spread_of(ms: list[float]) -> dict:
    """The info line's view of one run's operation times, in ms."""
    return {"samples": len(ms), "fastest_ms": min(ms), "p50_ms": statistics.median(ms), "p90_ms": p90(ms)}


def prepared_scenes(spec: SceneSpec, seeds, cfg: ModelConfig, tracer):
    scenes = []
    for s in seeds:
        with tracer.span("scenes.generate"):
            cloud = generate_scene(spec, s)
        scenes.append(prepare_scene(cloud, cfg))
    return scenes


# -- workloads -------------------------------------------------------------------


def train_default(seed, seconds, sizes, tracer, workdir) -> Outcome:
    """train_model at the default config on default scenes, batch 4."""
    cfg = ModelConfig()
    seeds = [scene_seed(seed, i) for i in range(sizes.train_scenes)]
    setup = Setup(lambda: prepared_scenes(SceneSpec(), seeds, cfg, tracer), sizes.setup_reps, seconds)
    scenes = setup.result
    tcfg = TrainConfig(epochs=sizes.train_epochs, batch_size=4, seed=seed)
    steps = len(scenes) * tcfg.epochs
    out = Outcome()
    calls, first = [], None
    deadline = time.perf_counter() + seconds
    while another(deadline, calls):
        setup.between_ops()
        t0 = time.perf_counter()
        try:
            lines = train_model(cfg, tcfg, scenes, []).log_lines
        except SemaffineError as e:
            lines, error = None, str(e)
        calls.append(time.perf_counter() - t0)
        out.attempted += steps
        if lines is None:
            out.check("train raised", [error], steps)
            continue
        failures = finite(epoch_losses(lines))
        if first is None:
            first = lines
        failures += equal(lines, first, "losses of a repeated train_model call")
        out.check("train losses finite and repeatable", failures, steps)
    per_step = [t * 1e3 / steps for t in calls]
    out.setup_s, out.op_ms = setup.median(), statistics.median(per_step)
    out.info = {"op": "one scene-step of train_model (train_scene_ms)", "op_times": spread_of(per_step),
                "train_model_calls": len(calls), "scene_steps_per_call": steps,
                "first_losses": epoch_losses(first) if first else None}
    return out


def eval_dense(seed, seconds, sizes, tracer, workdir) -> Outcome:
    """evaluate_scenes one dense scene at a time, forward only."""
    cfg = ModelConfig()
    seeds = [scene_seed(seed, i) for i in range(sizes.eval_scenes)]

    def make_inputs():
        scenes = prepared_scenes(DENSE, seeds, cfg, tracer)
        with tracer.span("model.build"):
            params = build_model(cfg, seed=seed)
        return scenes, params

    setup = Setup(make_inputs, sizes.setup_reps, seconds)
    scenes, params = setup.result
    tracer.register_model(params)
    out = Outcome()
    times, firsts = [], [None] * len(scenes)
    deadline = time.perf_counter() + seconds
    while another(deadline, times, sizes.eval_min_samples):
        setup.between_ops()
        i = len(times) % len(scenes)
        scene = scenes[i]
        t0 = time.perf_counter()
        confusion = evaluate_scenes(params, [scene]).confusion
        times.append(time.perf_counter() - t0)
        out.attempted += 1
        failures = equal(int(confusion.sum()), scene.cloud.n_points, "confusion total")
        if firsts[i] is None:
            firsts[i] = confusion.tolist()
        failures += equal(confusion.tolist(), firsts[i], f"confusion of repeated scene {i}")
        out.check("eval confusion complete and repeatable", failures)
    ms = [t * 1e3 for t in times]
    out.setup_s, out.op_ms = setup.median(), statistics.median(ms)
    out.info = {"op": "evaluate_scenes of one dense scene (eval_scene_ms.p50)", "op_times": spread_of(ms),
                "samples_beyond_p90": len(ms) - math.ceil(0.9 * len(ms)),
                "eval_scenes_per_s": len(times) / sum(times),
                "points_per_scene": [s.cloud.n_points for s in scenes]}
    return out


def ingest(seed, seconds, sizes, tracer, workdir) -> Outcome:
    """Scene synth and load, checkpoint save and load; no tape."""
    cfg = ModelConfig()
    tcfg = TrainConfig(seed=seed)
    n = sizes.ingest_scenes
    seeds = [scene_seed(seed, i) for i in range(n)]
    paths = [workdir / f"scene{i}.txt" for i in range(n)]
    copies = [workdir / f"scene{i}.again.txt" for i in range(n)]
    manifest = workdir / "manifest.txt"
    ckpt, ckpt_again = workdir / "model.ckpt", workdir / "model.again.ckpt"

    def make_models():
        with tracer.span("model.build"):
            saved = build_model(cfg, seed=seed).named_parameters()
        with tracer.span("model.build"):
            restored = build_model(cfg, seed=seed + 1).named_parameters()
        return saved, restored

    setup = Setup(make_models, sizes.setup_reps, seconds)
    saved, restored = setup.result
    config = snapshot(cfg, tcfg)
    out = Outcome()
    synth, load, save_ms, load_ms, rounds = [], [], [], [], []
    expected_sizes = None
    deadline = time.perf_counter() + seconds
    while another(deadline, rounds):
        setup.between_ops()
        t0 = time.perf_counter()
        clouds = []
        for s, path in zip(seeds, paths):
            with tracer.span("scenes.generate"):
                cloud = generate_scene(SceneSpec(), s)
            with tracer.span("scenes.write"):
                write_scene(cloud, path)
            clouds.append(cloud)
        write_manifest([(p.name, "train") for p in paths], manifest)
        t1 = time.perf_counter()
        loaded = load_corpus(manifest, cfg)["train"]
        t2 = time.perf_counter()
        with tracer.span("checkpoint.save"):
            save_checkpoint(ckpt, saved, config, step=len(rounds))
        t3 = time.perf_counter()
        with tracer.span("checkpoint.load"):
            _, step, entries = load_checkpoint(ckpt)
        with tracer.span("checkpoint.restore"):
            restore_parameters(restored, entries)
        t4 = time.perf_counter()
        tracer.count("checkpoint.bytes", ckpt.stat().st_size)
        for path in paths:
            tracer.count("scenes.bytes", path.stat().st_size)
        synth.append((t1 - t0) * 1e3 / n)
        load.append((t2 - t1) * 1e3 / n)
        save_ms.append((t3 - t2) * 1e3)
        load_ms.append((t4 - t3) * 1e3)
        rounds.append(t4 - t0)

        # gates, outside the timed sections
        if expected_sizes is None:
            expected_sizes = [build_hierarchy(c.coords, cfg.base_voxel, cfg.levels).sizes for c in clouds]
        out.attempted += 2 * n + 1
        for i, scene in enumerate(loaded):
            write_scene(scene.cloud, copies[i])
            out.check("scene write-read-write identical", same_bytes(paths[i], copies[i]))
            out.check("loaded hierarchy sizes", equal(scene.hier.sizes, expected_sizes[i], f"scene {i} sizes"))
        save_checkpoint(ckpt_again, restored, config, step=step)
        out.check("checkpoint save-load-save identical", same_bytes(ckpt, ckpt_again))
    round_ms = [t * 1e3 for t in rounds]
    out.setup_s, out.op_ms = setup.median(), statistics.median(round_ms)
    out.info = {"op": f"one round: {n} scenes synthesized and loaded, one checkpoint saved and loaded",
                "op_times": spread_of(round_ms), "scenes_per_round": n,
                "checkpoint_bytes": ckpt.stat().st_size,
                "synth_scene_ms": statistics.median(synth), "load_scene_ms": statistics.median(load),
                "ckpt_save_ms": statistics.median(save_ms), "ckpt_load_ms": statistics.median(load_ms)}
    return out


def run_gradcheck(module: str, tol: float | None = None) -> tuple[bool, list[str]]:
    lines: list[str] = []
    passed = verify.run_suite(module=module, tol=tol, emit=lines.append)
    return passed, lines


@contextlib.contextmanager
def between_forwards(fn):
    """Call ``fn`` before every forward that ``verify``'s finite-difference
    checks make, until exit."""
    original = verify.finite_diff_check

    def hooked(f, *args, **kwargs):
        def forward():
            fn()
            return f()
        return original(forward, *args, **kwargs)

    verify.finite_diff_check = hooked
    try:
        yield
    finally:
        verify.finite_diff_check = original


def gradcheck(seed, seconds, sizes, tracer, workdir) -> Outcome:
    """verify.run_suite over all six modules, in a seeded module order.

    The suite's inputs are fixed by the program; the seed only orders the
    modules. One module runs for about 12 s, so set-up repeats between
    modules would bunch into a few moments of the run; untraced, they run
    between the checks' forwards instead, and their time is taken out of the
    round's. Traced runs report no ``setup_s`` and leave the spans' node
    counts exact."""
    setup = Setup(lambda: list(verify.iter_checks()), sizes.setup_reps, seconds)
    order = list(GRADCHECK_MODULES)
    random.Random(seed).shuffle(order)
    out = Outcome()
    rounds = []
    deadline = time.perf_counter() + seconds
    while another(deadline, rounds):
        total = 0.0
        for module in order:
            hook = between_forwards(setup.between_ops) if tracer is spans.OFF else contextlib.nullcontext()
            in_setup = sum(setup.times)
            t0 = time.perf_counter()
            with hook, tracer.span(f"gradcheck.{module}"):
                passed, lines = run_gradcheck(module)
            total += time.perf_counter() - t0 - (sum(setup.times) - in_setup)
            checks, failures = suite_failures(lines, passed)
            out.attempted += checks
            out.check("every gradient check passes", failures, len(failures))
        rounds.append(total)
    round_ms = [t * 1e3 for t in rounds]
    out.setup_s, out.op_ms = setup.median(), statistics.median(round_ms)
    out.info = {"op": "one round of all six modules (gradcheck_s, in ms)", "op_times": spread_of(round_ms),
                "module_order": order}
    return out


WORKLOADS = {
    "train-default": train_default,
    "eval-dense": eval_dense,
    "ingest": ingest,
    "gradcheck": gradcheck,
}


# -- canaries: fixed inputs against reference.json -------------------------------------


def canary_train(ref: dict, out: Outcome) -> None:
    cfg = ModelConfig()
    scenes = [prepare_scene(generate_scene(SceneSpec(), s), cfg) for s in ref["scene_seeds"]]
    tcfg = TrainConfig(epochs=ref["epochs"], batch_size=ref["batch_size"], seed=ref["train_seed"])
    losses = epoch_losses(train_model(cfg, tcfg, scenes, []).log_lines)
    out.attempted += len(scenes) * tcfg.epochs
    out.check("canary losses equal reference (1e-12 relative)", losses_match(losses, ref["losses"]),
              len(scenes) * tcfg.epochs)


def canary_eval(ref: dict, out: Outcome) -> None:
    cfg = ModelConfig()
    scene = prepare_scene(generate_scene(DENSE, ref["scene_seed"]), cfg)
    confusion = evaluate_scenes(build_model(cfg, seed=ref["model_seed"]), [scene]).confusion
    out.attempted += 1
    out.check("canary confusion equals reference", equal(confusion.tolist(), ref["confusion"], "confusion"))


def canary_ingest(ref: dict, out: Outcome, workdir: Path) -> None:
    cfg = ModelConfig()
    cloud = generate_scene(SceneSpec(), ref["scene_seed"])
    path = workdir / "canary.txt"
    write_scene(cloud, path)
    data = path.read_bytes()
    sizes = build_hierarchy(cloud.coords, cfg.base_voxel, cfg.levels).sizes
    out.attempted += 1
    out.check("canary scene file and hierarchy equal reference",
              equal(len(data), ref["scene_bytes"], "scene bytes")
              + equal(zlib.crc32(data), ref["scene_crc32"], "scene crc32")
              + equal(sizes, ref["hierarchy_sizes"], "hierarchy sizes"))


def canary(workload: str, reference: dict, out: Outcome, workdir: Path) -> None:
    if workload == "train-default":
        canary_train(reference["train-default"], out)
    elif workload == "eval-dense":
        canary_eval(reference["eval-dense"], out)
    elif workload == "ingest":
        canary_ingest(reference["ingest"], out, workdir)
    # gradcheck: every check of every round is already gated


# -- per-layer numbers from a traced run ---------------------------------------------------
#
# Every workload reports every per-layer metric; a layer the workload does
# not reach reads 0.


def stage_names(cfg: ModelConfig) -> list[str]:
    names = [f"enc{i}" for i in range(cfg.levels)] + ["pos_mlp"]
    names += [f"token_encoder.block{b}" for b in range(cfg.encoder_depth)]
    names += [f"query_decoder.block{b}" for b in range(cfg.decoder_depth)] + ["mask_head"]
    names += [f"affine_heads.{i}" for i in range(1, cfg.n_mid + 1)]
    names += [f"mid{level}" for level in cfg.mid_levels] + ["site0", "loss"]
    return names


def _per(total: float, n: int) -> float:
    return total / n if n else 0.0


def layer_metrics(tracer, untraced: Outcome, traced: Outcome) -> dict:
    """name -> (value, unit) for every per-layer metric."""
    totals = tracer.totals()
    counts = tracer.counts

    def get(name: str) -> spans.Totals:
        return totals.get(name, spans.Totals())

    def ms_per_call(name: str) -> tuple[float, str]:
        t = get(name)
        return _per(t.seconds * 1e3, t.calls), "ms"

    cfg = ModelConfig()
    fwd = get("model.forward")
    n = fwd.calls  # one model forward per scene
    metrics = {}
    for name in stage_names(cfg):
        t = get(name)
        metrics[f"stage.{name}.fwd_ms"] = (_per(t.self_seconds * 1e3, n), "ms")
        metrics[f"stage.{name}.nodes"] = (_per(t.self_nodes, n), "count")
    metrics["stage.unattributed.fwd_ms"] = (_per(fwd.self_seconds * 1e3, n), "ms")
    metrics["stage.unattributed.nodes"] = (_per(fwd.self_nodes, n), "count")
    loss = get("loss")
    metrics["model.forward_ms"] = (_per((fwd.seconds + loss.seconds) * 1e3, n), "ms")
    metrics["tensor.nodes"] = (_per(fwd.nodes + loss.nodes, n), "count")
    metrics["tensor.backward_ms"] = ms_per_call("tensor.backward")
    metrics["tensor.tape_nodes"] = (counts.get("tensor.tape_nodes", 0), "count")
    metrics["tensor.tape_leaves"] = (counts.get("tensor.tape_leaves", 0), "count")
    metrics["harness.sgd_step_ms"] = ms_per_call("harness.sgd_step")
    metrics["model.build_ms"] = ms_per_call("model.build")
    for name in ("scenes.generate", "scenes.write", "scenes.read"):
        metrics[f"{name}_ms"] = ms_per_call(name)
    metrics["scenes.bytes"] = (_per(counts.get("scenes.bytes", 0), get("scenes.write").calls), "bytes")
    metrics["hierarchy.build_ms"] = ms_per_call("hierarchy.build")
    metrics["hierarchy.shadow_ms"] = ms_per_call("hierarchy.shadow")
    builds = counts.get("hierarchy.builds", 0)
    for level in range(cfg.levels):
        name = f"hierarchy.level{level}.points"
        metrics[name] = (_per(counts.get(name, 0), builds), "count")
    for name in ("checkpoint.save", "checkpoint.load", "checkpoint.restore"):
        metrics[f"{name}_ms"] = ms_per_call(name)
    metrics["checkpoint.bytes"] = (_per(counts.get("checkpoint.bytes", 0), get("checkpoint.save").calls),
                                   "bytes")
    rounds = get("gradcheck.model").calls
    for m in GRADCHECK_MODULES:
        metrics[f"gradcheck.{m}_s"] = (_per(get(f"gradcheck.{m}").seconds, rounds), "s")
    metrics["gradcheck.forward_calls"] = (_per(counts.get("gradcheck.forward_calls", 0), rounds), "count")
    metrics["gradcheck.backward_calls"] = (_per(counts.get("tensor.backward_calls", 0), rounds), "count")
    metrics["gradcheck.nodes"] = (_per(sum(get(f"gradcheck.{m}").nodes for m in GRADCHECK_MODULES), rounds),
                                  "count")
    metrics["trace.overhead_pct"] = (100.0 * (traced.op_ms - untraced.op_ms) / untraced.op_ms, "%")
    return metrics
