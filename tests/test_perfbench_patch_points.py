"""The benchmark's tracer patches names in semaffine's modules; this guards them.

``perfbench/spans.py`` swaps wrappers into ``semaffine.model``, ``train``,
``tensor`` and ``verify`` and reads the ``ModelParams`` fields. A renamed or
deleted patch point, or a changed call signature, breaks the traced
benchmark runs; this test catches it on one tiny training epoch.
"""

from pathlib import Path

import semaffine.model as model_mod
import semaffine.tensor as tensor_mod
import semaffine.train as train_mod
import semaffine.verify as verify_mod
from semaffine.harness import TrainConfig
from semaffine.model import ModelConfig, build_model
from semaffine.scenes import SceneSpec, generate_scene
from semaffine.train import prepare_scene, train_model

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
PATCHED_MODULES = (model_mod, train_mod, tensor_mod, verify_mod)
TINY = ModelConfig(levels=3, level_dims=(6, 8, 10), d_h=8, d_m=8, encoder_depth=1, decoder_depth=4,
                   heads=2, base_voxel=0.8)


def test_traced_training_epoch_runs_and_restores_every_patch_point(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import spans

    before = [{name: id(value) for name, value in vars(module).items()} for module in PATCHED_MODULES]
    scenes = [prepare_scene(generate_scene(SceneSpec(points_per_object=24), seed=i), TINY) for i in range(2)]
    with spans.instrument(spans.Tracer()) as tracer:
        tracer.register_model(build_model(TINY, seed=0))
        assert tracer.stages
        result = train_model(TINY, TrainConfig(epochs=1, batch_size=2), scenes, [])
    assert len(result.log_lines) == 1
    names = {span.name for span in tracer.spans}
    assert {"model.build", "model.forward", "loss", "tensor.backward", "harness.sgd_step",
            "enc0", "pos_mlp", "token_encoder.block0", "query_decoder.block0", "mask_head",
            "affine_heads.1"} <= names, names
    for module, saved in zip(PATCHED_MODULES, before):
        assert {name: id(value) for name, value in vars(module).items()} == saved, module.__name__
