"""The ablation driver at a tiny scale: ``semaffine ablate`` prints the same
bytes on every run, and the paired comparison counts wins and takes the
median of the per-seed differences."""

import re

from semaffine.ablate import AblationResult
from semaffine.cli import main

TINY_ABLATION = """\
levels = 3
level_dims = 6,8,10
d_h = 8
d_m = 8
heads = 2
encoder_depth = 1
decoder_depth = 4
base_voxel = 0.8
epochs = 3
batch_size = 1
base_lr = 0.2
scene_objects = 3
scene_points_per_object = 24
ablate_train_scenes = 3
ablate_val_scenes = 2
"""


def test_ablate_prints_the_same_bytes_twice(tmp_path, capsys):
    config = tmp_path / "ablate.cfg"
    config.write_text(TINY_ABLATION)
    outputs = []
    for _ in range(2):
        assert main(["ablate", "--config", str(config), "--variants", "bn,sa", "--seeds", "2"]) == 0
        out, err = capsys.readouterr()
        assert err == ""
        outputs.append(out)
    assert outputs[0] == outputs[1]
    lines = outputs[0].splitlines()
    assert [line.split(":")[0] for line in lines[:4]] == [
        "mask/bn seed 0", "mask/bn seed 1", "mask/sa seed 0", "mask/sa seed 1"]
    assert lines[4].split() == ["variant", "seed0", "seed1", "median"]
    assert [line.split()[0] for line in lines[5:7]] == ["mask/bn", "mask/sa"]
    assert re.fullmatch(r"mask/sa vs mask/bn: [0-2]/2 seeds improved, median delta [+-]\d\.\d{4}", lines[7])
    assert len(lines) == 8


def test_paired_comparison_counts_wins_and_takes_the_median():
    a, b = ("mask", "sa"), ("mask", "bn")
    result = AblationResult(variants=[b, a], seeds=4,
                            miou={a: [0.5, 0.25, 0.75, 0.5], b: [0.25, 0.5, 0.5, 0.5]})
    # differences 0.25, -0.25, 0.25 and a tie: two wins, median (0 + 0.25) / 2
    assert result.paired_comparison(a, b) == (2, 0.125)
    assert result.paired_comparison(b, a) == (1, -0.125)
    assert result.summary_lines() == [
        "variant            seed0  seed1  seed2  seed3  median",
        "mask/bn           0.2500  0.5000  0.5000  0.5000  0.5000",
        "mask/sa           0.5000  0.2500  0.7500  0.5000  0.5000",
    ]
